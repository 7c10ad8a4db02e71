"""Independent recomputations used to cross-check the package.

Two kinds of oracle live here, both deliberately sharing no code with the
package: 50-digit mpmath evaluations of the closed forms (the measures at more
digits near zero, see :func:`digits`), and matrix-level
routes (Gibbs state of the actual 4x4 Hamiltonian, von Neumann entropies,
partial transpose by index shuffling) that don't presume any of them.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.linalg

mp.mp.dps = 50


def _xlg(x):
    return x * mp.log(x) / mp.ln2 if x > 0 else mp.mpf(0)


def digits(x):
    """The working digits of the measures at the float ``x``: 60 and twice its decades from 1.
    Their terms are of order x, or 1 for ``eof``, and cancel down to order x**2, so 50 fixed
    digits leave no digit of the value at |x| under ~1e-25."""
    return 60 + 2 * math.ceil(abs(math.log10(abs(x)))) if x else 60


def _at_digits(measure):
    """``measure(x)`` evaluated at :func:`digits` of ``x``."""

    @functools.wraps(measure)
    def at(x):
        with mp.workdps(digits(x)):
            return measure(x)

    return at


def _g(j, t):
    return -1 + 4 / (3 + mp.e ** (-2 * mp.mpf(j) / mp.mpf(t)))


def g_of_t(j, t):
    return float(_g(j, t))


def t_of_g(j, g):
    """The temperature at which a dimer of coupling ``j`` shows the double ``g``, as a
    50-digit mpf: -2J/ln(q/p) with ln(q/p) = log1p(-3G) - log1p(G), no cancellation."""
    g = mp.mpf(g)
    return -2 * mp.mpf(j) / (mp.log1p(-3 * g) - mp.log1p(g))


@_at_digits
def mutual_information(g):
    g = mp.mpf(g)
    return float((_xlg(1 - 3 * g) + 3 * _xlg(1 + g)) / 4)


@_at_digits
def classical(g):
    a = abs(mp.mpf(g))
    return float((_xlg(1 + a) + _xlg(1 - a)) / 2)


@_at_digits
def discord(g):
    g = mp.mpf(g)
    return float((_xlg(1 - 3 * g) + 3 * _xlg(1 + g)) / 4 - (_xlg(1 + abs(g)) + _xlg(1 - abs(g))) / 2)


def concurrence(g):
    return float(max(mp.mpf(0), -(1 + 3 * mp.mpf(g)) / 2))


@_at_digits
def eof(c):
    c = mp.mpf(c)
    x = (1 + mp.sqrt(1 - c * c)) / 2
    return float(-_xlg(x) - _xlg(1 - x))


def cm_of_g(g):
    g = mp.mpf(g)
    p, q = 1 + g, 1 - 3 * g
    if p == 0 or q == 0:
        return 0.0
    return float(3 * p * q * mp.log(p / q) ** 2 / 16)


def cm_of_t(j, t):
    a = 2 * mp.mpf(j) / mp.mpf(t)
    e = mp.e**a
    return float(3 * a**2 * e / (1 + 3 * e) ** 2)


def cm_inversion(cm, antiferro, side):
    """The correlator where c_m/R equals the float ``cm`` on one flank of the
    Schottky curve, as a 50-digit mpf (see :func:`cm_inversion_x`)."""
    return g_of_x(cm_inversion_x(cm, antiferro, side), antiferro)


def g_of_x(x, antiferro):
    """G at x = |2J/(k_B T)| on one branch, as an mpf."""
    em = mp.expm1(-x)  # e^-x - 1, for x below 1e-50 too
    return em / (3 * em + 4) if antiferro else -em / (em + 4)


def ground_gap(x, antiferro):
    """How far G lies from its ground state at x = |2J/(k_B T)|, as an mpf: 1 + G
    antiferro, 1/3 - G ferro, taken from e^-x so that no 50-digit G cancels."""
    e = mp.e ** (-mp.mpf(x))
    return 4 * e / (3 * e + 1) if antiferro else 4 * e / (3 * (e + 3))


def cm_inversion_x(cm, antiferro, side):
    """The x = |2J/(k_B T)| where c_m/R equals the float ``cm`` on one flank of the
    Schottky curve, as an mpf.  Bisection in ln x inside (sqrt(cm), x*) on the hot side
    and (x*, 800) on the cold one: c_m/R <= x^2/4 everywhere, and is below the smallest
    double past x = 800."""
    c = mp.mpf(cm)

    def log_cm(x):
        e = mp.e ** (-x)
        return mp.log(3 * x * x * e / ((1 + 3 * e) if antiferro else (3 + e)) ** 2)

    def slope(x):  # d ln c_m / dx, zero at the peak x*
        return 2 / x - 1 + (6 / (mp.e**x + 3) if antiferro else 2 / (3 * mp.e**x + 1))

    x_peak = mp.findroot(slope, (mp.mpf(1), mp.mpf(4)), solver="anderson")
    lo, hi = (mp.sqrt(c), x_peak) if side == "hot" else (x_peak, mp.mpf(800))
    for _ in range(100):  # ln(hi/lo) < 400 shrinks below 1e-27
        mid = mp.sqrt(lo * hi)
        if (log_cm(mid) > mp.log(c)) == (side == "hot"):
            hi = mid
        else:
            lo = mid
    return mp.sqrt(lo * hi)


def u_of_t(j, t):
    return float(mp.mpf("-1.5") * mp.mpf(j) * _g(j, t))


def _in_band(g):
    """``g`` pulled into [-1, 1/3], as a measured correlator just outside it is."""
    return min(max(g, mp.mpf(-1)), mp.mpf(1) / 3)


def g_of_u(j, u):
    """The correlator -2u/(3J) of the energy ``u`` = u/R, pulled into the band."""
    return float(_in_band(-2 * mp.mpf(u) / (3 * mp.mpf(j))))


def g_of_chi(g_factor, chi, t, curie):
    """The correlator 2 T chi/(C g^2) - 1 of the susceptibility ``chi``, pulled into the band."""
    g = 2 * mp.mpf(t) * mp.mpf(chi) / (mp.mpf(curie) * mp.mpf(g_factor) ** 2) - 1
    return float(_in_band(g))


def powder_g(gx, gy, gz):
    return float(mp.sqrt((mp.mpf(gx) ** 2 + mp.mpf(gy) ** 2 + mp.mpf(gz) ** 2) / 3))


def lambert_w(x):
    return float(mp.lambertw(mp.mpf(x)))


def series_integral(t, v, a, t_start):
    """The exact value, as a Fraction, of the ramp, trapezoid and tail sum
    t0 v0/2 + sum (t[i+1] - t[i]) (v[i] + v[i+1])/2 + a/t_start over the doubles given."""
    t, v = [list(map(Fraction, x)) for x in (t, v)]
    trapezoids = sum((t1 - t0) * (v0 + v1) for t0, t1, v0, v1 in zip(t, t[1:], v, v[1:]))
    return (t[0] * v[0] + trapezoids) / 2 + Fraction(a) / Fraction(t_start)


def chi_of_t(j, g_factor, t, curie):
    j, gf, t = mp.mpf(j), mp.mpf(g_factor), mp.mpf(t)
    return float(mp.mpf(curie) * gf**2 * (1 + g_of_t(j, t)) / (2 * t))


def bleaney_bowers(j, g_factor, t, curie):
    """chi = 2 g^2 C / (T (3 + e^(-2J/T))), with no 1 + G formed in floats."""
    j, gf, t = mp.mpf(j), mp.mpf(g_factor), mp.mpf(t)
    return float(2 * gf**2 * mp.mpf(curie) / (t * (3 + mp.e ** (-2 * j / t))))


def fit_cost(j, g_factor, t, chi, sigma, curie):
    """Weighted least-squares cost of the Bleaney-Bowers model at (j, g_factor), at 50 digits."""
    j, gf, curie = mp.mpf(j), mp.mpf(g_factor), mp.mpf(curie)
    total = mp.mpf(0)
    for x, y, s in zip(*(np.asarray(a, dtype=float).tolist() for a in (t, chi, sigma))):
        x = mp.mpf(x)
        total += ((2 * gf**2 * curie / (x * (3 + mp.e ** (-2 * j / x))) - y) / s) ** 2
    return total


def entanglement_crossing(measure):
    """The antiferro correlator, as a 50-digit mpf, where the entanglement of
    formation crosses the discord (``measure="discord"``) or the classical
    correlation (``"classical"``); each has one root on (-0.95, -0.4)."""

    def classical(g):  # |g| = -g on the antiferro branch
        return (_xlg(1 - g) + _xlg(1 + g)) / 2

    def discord(g):
        return (_xlg(1 - 3 * g) + 3 * _xlg(1 + g)) / 4 - classical(g)

    def entanglement(g):
        x = (1 + mp.sqrt(1 - ((1 + 3 * g) / 2) ** 2)) / 2
        return -_xlg(x) - _xlg(1 - x)

    f = {"discord": discord, "classical": classical}[measure]
    return mp.findroot(
        lambda g: f(g) - entanglement(g), (mp.mpf("-0.95"), mp.mpf("-0.4")), solver="anderson"
    )


@functools.cache
def crossing_temperature_scale(measure):
    """k_B T/|J| = 2/ln((1 - 3g)/(1 + g)) at the correlator of
    :func:`entanglement_crossing`, as a 50-digit mpf."""
    g = entanglement_crossing(measure)
    return 2 / mp.log((1 - 3 * g) / (1 + g))


@functools.cache
def schottky_peak_temperature_scale(antiferro):
    """k_B T*/|J| = |1 + 3g*|/2 at the Schottky peak of one branch, as a
    50-digit mpf: g* is the root of (1 + 3g) ln((1 + g)/(1 - 3g)) = 4 on
    (-0.95, -0.6) antiferro and on (0.2, 0.33) ferro."""
    bracket = ("-0.95", "-0.6") if antiferro else ("0.2", "0.33")
    g = mp.findroot(
        lambda g: (1 + 3 * g) * mp.log((1 + g) / (1 - 3 * g)) - 4,
        tuple(map(mp.mpf, bracket)),
        solver="anderson",
    )
    return abs(1 + 3 * g) / 2


# --- matrix routes -----------------------------------------------------------

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)

SPIN_DOT = sum(np.kron(s, s) for s in PAULI).real


def density_matrix(g):
    """The thermal state (1 + G sigma1.sigma2)/4 in the basis |00>, |01>, |10>, |11>."""
    return (np.eye(4) + g * SPIN_DOT) / 4.0


def gibbs_correlator(j, t):
    """G(T) straight from exp(-H/T) of H = -(J/2) sigma1.sigma2, no formulas."""
    h = -0.5 * j * SPIN_DOT
    rho = scipy.linalg.expm(-h / t)
    rho /= np.trace(rho)
    return float(np.trace(rho @ SPIN_DOT).real / 3.0)


def entropy_bits(rho):
    w = np.linalg.eigvalsh(rho)
    return float(-sum(x * np.log2(x) for x in w if x > 1e-15))


def reduced_states(rho):
    r4 = np.asarray(rho).reshape(2, 2, 2, 2)
    ra = np.trace(r4, axis1=1, axis2=3)
    rb = np.trace(r4, axis1=0, axis2=2)
    return ra, rb


def mutual_information_from_state(rho):
    ra, rb = reduced_states(rho)
    return entropy_bits(ra) + entropy_bits(rb) - entropy_bits(rho)


def partial_transpose(rho):
    return np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
