"""Correlation measures of a thermalized spin-1/2 exchange dimer.

The system is a pair of spins 1/2 coupled by the isotropic Heisenberg
interaction

    H = -(J/2) * (sigma_1 . sigma_2),

written with Pauli matrices, so the coupling is quoted throughout as
``J/k_B`` in kelvin: negative for antiferromagnetic dimers (singlet ground
state), positive for ferromagnetic ones (triplet ground state).

At temperature T every property of the Gibbs state is a function of the
single spin-spin correlator

    G(T) = <sigma_1^u sigma_2^u>  (any axis u)
         = -1 + 4 / (3 + exp(-2J/(k_B T))),

which runs over [-1, 0) for J < 0 and (0, 1/3] for J > 0.  The thermal
state itself is the X-form matrix ``rho = (1 + G sigma_1 . sigma_2)/4`` in
the standard product basis.

All information measures are reported in bits per dimer:

* total (mutual) information
  ``I = [ (1-3G) log2(1-3G) + 3 (1+G) log2(1+G) ] / 4``,
* classical correlation
  ``C = [ (1+G) log2(1+G) + (1-G) log2(1-G) ] / 2``, even in G,
* quantum discord ``Q = I - C``,
* concurrence ``max(0, -(1+3G)/2)`` and the entanglement of formation it
  generates through the binary-entropy formula.

Entanglement dies at ``k_B T_e = 2|J|/ln 3`` for antiferromagnetic coupling
and is absent at every temperature for ferromagnetic coupling; discord
survives at all finite temperatures.

The module also holds what both the thermodynamic channels and the
susceptibility fit build on: the CODATA constants, powder averaging of a g
tensor, and the Bleaney-Bowers susceptibility curve.

Each closed form is written once and takes a float or a numpy array (a whole column
of temperatures or correlators).  Only the primitives dispatch on the two: a float goes
to :mod:`math`, and an array has the same function mapped over its elements, so each
element of an array result equals the float result bit for bit (numpy's ``exp`` and
``log`` differ from libm in the last bit on a share of inputs).  A public input is read
by :func:`_real`, or by its array twin :func:`_check_each` cell by cell.  numpy loads
with the first array (:func:`_numpy`), so scalar callers never pay for its start-up.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .errors import DomainError

# annotations are never evaluated, so numpy need not be loaded to name its types
FloatOrArray = "float | np.ndarray"

__all__ = [
    "G_MIN",
    "G_MAX",
    "DEATH_TEMPERATURE_SCALE",
    "QE_CROSSING_G",
    "CE_CROSSING_G",
    "PhysicalConstants",
    "CODATA",
    "DimerParameters",
    "CorrelationSet",
    "validate_correlator",
    "correlator_from_temperature",
    "temperature_from_correlator",
    "mutual_information",
    "classical_correlation",
    "discord",
    "concurrence",
    "entanglement_of_formation",
    "entanglement_death_temperature",
    "powder_g",
    "bleaney_bowers",
    "ppt_eigenvalues",
    "measures_from_correlator",
    "correlation_set",
]

G_MIN = -1.0
G_MAX = 1.0 / 3.0

# Antiferro correlators where the entanglement of formation E crosses the
# discord Q and the classical correlation C: roots of Q(g) = E(g) and
# C(g) = E(g) on (-1, -1/3), correctly rounded from 50 digits.  Every measure
# is a closed form of g, so each crossing sits at one universal k_B T/|J|.
QE_CROSSING_G = -0.878753087946204
CE_CROSSING_G = -0.6571969044257224

_G_TOL = 1e-9  # float fuzz allowed on direct correlator inputs before we refuse
_XLOG_CUTOFF = 1e-30  # below this, x*log2(x) is 0 to double precision anyway
_EXP_ARG_MAX = 700.0  # exp() overflows near 709; beyond this use the T=0 limit


class PhysicalConstants(NamedTuple):
    """CODATA-2018 constants in CGS-emu, as used by magnetochemists."""

    avogadro: float = 6.02214076e23  # 1/mol (exact)
    bohr_magneton: float = 9.2740100783e-21  # erg/G
    boltzmann: float = 1.380649e-16  # erg/K (exact)
    gas_constant: float = 8.31446261815324  # J/(mol K) (exact)

    @property
    def curie_prefactor(self) -> float:
        """N_A mu_B^2 / k_B in emu K/mol; about 0.3751481."""
        return self.avogadro * self.bohr_magneton**2 / self.boltzmann


CODATA = PhysicalConstants()


def _validated_make(cls, fields):
    # _make, and so _replace, of a validating record goes through its __new__
    return cls(*fields)


_MAX = sys.float_info.max
_POSITIVE = 5e-324  # the lo of "be positive": x >= it is x > 0


def _real(name: str, x: object, rule: str | None = None, lo=-_MAX, hi=_MAX) -> float:
    """A public scalar input ``x`` as a float: any real number, numpy scalars included;
    anything else, or a number past the largest double, raises a DomainError that names
    it.  With a ``rule``, so does a value outside ``[lo, hi]``, NaN and +-inf included."""
    if type(x) is not float:
        if type(x) is not int:
            import numbers  # only a value that is neither a float nor an int loads it

            if not isinstance(x, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise DomainError(f"{name} lies beyond the range of a double") from None
    if rule is None or lo <= x <= hi:
        return x
    raise DomainError(f"{name} must {rule}, got {x!r}")


class _DimerParameters(NamedTuple):
    j_over_kb: float
    g_factor: float | tuple[float, float, float] | None = None


class DimerParameters(_DimerParameters):
    """Exchange coupling and, when needed, the spectroscopic g factor.

    Parameters
    ----------
    j_over_kb : float
        J/k_B in kelvin.  Negative = antiferromagnetic, positive =
        ferromagnetic; zero is rejected (no dimer left).
    g_factor : float, 3-tuple or None
        Scalar g factor, or the principal values ``(gx, gy, gz)`` to be
        powder-averaged, or None when no magnetometric work is planned.
        Every use of g takes g², so g² must neither overflow a double nor
        underflow to a subnormal one; a tensor is refused where :func:`powder_g` refuses it.

    Each number may be any real number, numpy scalars included, and is
    stored as a float.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, j_over_kb: float, g_factor=None):
        j = _real("j_over_kb", j_over_kb)
        if not math.isfinite(j) or j == 0.0:
            raise DomainError(f"j_over_kb must be finite and nonzero, got {j!r}")
        if isinstance(g_factor, (list, tuple)):
            if len(g_factor) != 3:
                raise DomainError("g tensor needs exactly three principal values")
            powder_g(*g_factor)  # raises DomainError on a tensor it refuses
            g_factor = tuple(map(float, g_factor))  # each a real number, as powder_g read it
        elif g_factor is not None:
            g = g_factor = _real("g factor", g_factor, "be positive", _POSITIVE)
            if g * g == math.inf:
                raise DomainError(f"g factor {g!r} is too large: its square overflows")
            if g * g < sys.float_info.min:  # subnormal: chi would lose digits
                raise DomainError(f"g factor {g!r} is too small: its square underflows")
        return tuple.__new__(cls, (j, g_factor))

    @property
    def antiferro(self) -> bool:
        return self.j_over_kb < 0.0

    @property
    def scalar_g(self) -> float | None:
        """The g factor a powder measurement sees: a tensor triple is
        powder-averaged; None when no g factor is set."""
        gf = self.g_factor
        return powder_g(*gf) if isinstance(gf, tuple) else gf


class CorrelationSet(NamedTuple):
    """All five correlation measures of one thermal state, in bits per dimer."""

    mutual_information: float
    classical: float
    discord: float
    concurrence: float
    entanglement: float


# Float or array.  The public functions hand the closed forms either Python
# floats (never numpy scalars) or float arrays, and only the primitives below
# tell the two apart.  Elsewhere a branch is written as a 0/1 mask factor,
# which is exact in floating point for both.


def _numpy():
    """numpy, imported on the first call: the package's one import of it."""
    import numpy

    return numpy


def _is_array(x: object) -> bool:
    """Whether ``x`` is a numpy array of any shape; no array exists before numpy loads."""
    np = sys.modules.get("numpy") if type(x) is not float else None  # a float needs no lookup
    return np is not None and isinstance(x, np.ndarray)


def _map(fn: Callable[[float], float], x: FloatOrArray) -> FloatOrArray:
    """``fn(x)`` on a float; on an array, ``fn`` mapped over its elements."""
    if type(x) is float:
        return fn(x)
    return _numpy().fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _clip(x: FloatOrArray, lo: float, hi: float) -> FloatOrArray:
    """``x`` clipped to ``[lo, hi]``, a NaN sent to ``lo``."""
    if _is_array(x):
        return _numpy().fmin(hi, _numpy().fmax(lo, x))
    x = x if x > lo else lo  # min(hi, max(lo, x)), without the builtins' slow calls
    return x if x < hi else hi


def _boltzmann(j: FloatOrArray, t: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """``a = -2J/(k_B T)`` and ``e^a``, its exponent clipped to +-_EXP_ARG_MAX as :func:`_clip`
    does, so that e stays finite even where a is infinite (T below ~|J|/1e308 K)."""
    if type(t) is float and type(j) is float:  # told apart without a call: this path is hot
        a = -2.0 * j / t
        capped = _EXP_ARG_MAX if a > _EXP_ARG_MAX else a if a >= -_EXP_ARG_MAX else -_EXP_ARG_MAX
        return a, math.exp(capped)  # clipped inline, without a call
    with _numpy().errstate(over="ignore"):
        a = -2.0 * j / t
    return a, _map(math.exp, _clip(a, -_EXP_ARG_MAX, _EXP_ARG_MAX))


def _xlog2(x: FloatOrArray) -> FloatOrArray:
    # the entropy convention 0*log(0) = 0, with a guard well below double noise
    if type(x) is float:
        return 0.0 if x < _XLOG_CUTOFF else x * math.log2(x)
    x = _numpy().where(x < _XLOG_CUTOFF, 1.0, x)  # 1*log2(1) is that exact 0
    return x * _map(math.log2, x)


def _check_each(name: str, x: np.ndarray, check=None, lo=-_MAX, hi=_MAX) -> np.ndarray:
    """The array twin of :func:`_real`: an array input ``x`` as a float array, each cell that
    numpy holds as other than a bool, an int or a float read by ``_real(name, cell)``.  A
    ``check`` raises its own error for the first cell outside ``[lo, hi]``, NaN included."""
    if x.dtype.kind not in "biuf":  # bool, signed and unsigned integers, floats
        x = _numpy().array([_real(name, cell) for cell in x.ravel().tolist()]).reshape(x.shape)
    x = _numpy().asarray(x, dtype=float)
    if check is not None and not (ok := (x >= lo) & (x <= hi)).all():
        check(float(x.ravel()[ok.ravel().argmin()]))
    return x


def _temperature(t: float) -> float:
    """``t`` as a float; a DomainError unless it is a positive, finite temperature."""
    return _real("temperature", t, "be positive", _POSITIVE)


def _temperatures(t: FloatOrArray) -> FloatOrArray:
    """:func:`_temperature` of a float, or of each element of an array, kept as a float array."""
    if type(t) is not float and _is_array(t):
        return _check_each("temperature", t, _temperature, _POSITIVE)
    return _temperature(t)


def validate_correlator(g: FloatOrArray) -> FloatOrArray:
    """Check that ``g`` is a physical correlator, absorbing float fuzz.

    Values inside ``[-1, 1/3]`` pass through; values within 1e-9 of the
    endpoints are clamped onto them; anything further out raises
    :class:`DomainError`.  An array is checked element by element and the
    error names its first bad element.
    """
    if type(g) is not float:
        if _is_array(g):
            g = _check_each("correlator", g, validate_correlator, G_MIN - _G_TOL, G_MAX + _G_TOL)
            return g.clip(G_MIN, G_MAX)
        g = _real("correlator", g)
    if not G_MIN - _G_TOL <= g <= G_MAX + _G_TOL:
        _real("correlator", g, "be finite")  # a NaN or an infinity raises as one
        raise DomainError(f"correlator {g!r} lies outside the physical range [-1, 1/3]")
    return G_MIN if g < G_MIN else G_MAX if g > G_MAX else g


def correlator_from_temperature(params: DimerParameters, t: FloatOrArray) -> FloatOrArray:
    """Thermal spin-spin correlator G(T) of the dimer at temperature ``t`` (K)."""
    t = _temperatures(t)
    j = params.j_over_kb
    a, e = _boltzmann(j, t)
    # T -> 0 limit, where exp() would overflow: pure singlet (G=-1) or
    # thermal triplet (G=1/3)
    thawed = abs(a) <= _EXP_ARG_MAX
    frozen = abs(a) > _EXP_ARG_MAX
    g = -1.0 + 4.0 / (3.0 + e)
    return g * thawed + (G_MIN if j < 0.0 else G_MAX) * frozen


def temperature_from_correlator(params: DimerParameters, g: float) -> float:
    """Temperature (K) at which the dimer shows correlator ``g``.

    Inverse of :func:`correlator_from_temperature`; ``g`` must lie strictly
    inside the branch reachable with the sign of ``params.j_over_kb``
    (``(-1, 0)`` antiferromagnetic, ``(0, 1/3)`` ferromagnetic).  T = -2J/(k_B ln(q/p)),
    q = 1 - 3G, p = 1 + G, is within 5e-16 relative of its exact value at the double ``g``
    on the whole branch, |G| down to 5e-324 included; a T past the largest double is inf.
    """
    g = validate_correlator(_real("correlator", g))  # a float: an array is refused
    j = params.j_over_kb
    if not (G_MIN < g < 0.0 if j < 0.0 else 0.0 < g < G_MAX):
        sign = "antiferromagnetic" if j < 0.0 else "ferromagnetic"
        raise DomainError(f"correlator {g!r} not reachable at finite T with {sign} coupling")
    # log1p keeps a small G's digits; from G = 1/4 on, q = (1 - 2G) - G is exact (Sterbenz)
    ln_q = math.log1p(-3.0 * g) if g < 0.25 else math.log((1.0 - 2.0 * g) - g)
    return -2.0 * (j / (ln_q - math.log1p(g)))  # divided first: no overflow


# closed forms of an already validated correlator; public functions validate once


def _information(g: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """``(I, C)``: both take the term at 1 + G, and it is taken once."""
    p = _xlog2(1.0 + g)
    # C is even in g: 1 - (-g) is 1 + g exactly, so a negative g only swaps its two terms
    return 0.25 * (_xlog2(1.0 - 3.0 * g) + 3.0 * p), 0.5 * (p + _xlog2(1.0 - g))


def _concurrence(g: FloatOrArray) -> FloatOrArray:
    # max(0, c), exactly: c + |c| is 2c or +0; zero on the whole ferro range
    c = -(1.0 + 3.0 * g) / 2.0
    return 0.5 * (c + abs(c))


def mutual_information(g: FloatOrArray) -> FloatOrArray:
    """Total correlation I(G) in bits between the two spins."""
    return _information(validate_correlator(g))[0]


def classical_correlation(g: FloatOrArray) -> FloatOrArray:
    """Classical part C(G) of the total correlation, in bits."""
    return _information(validate_correlator(g))[1]


def discord(g: FloatOrArray) -> FloatOrArray:
    """Quantum discord Q(G) = I(G) - C(G) in bits."""
    i, c = _information(validate_correlator(g))
    return i - c


def concurrence(g: FloatOrArray, antiferro: bool) -> FloatOrArray:
    """Concurrence of the thermal state with correlator ``g``.

    ``max(0, -(1+3G)/2)`` on the antiferromagnetic branch; identically zero
    on the ferromagnetic one.  The flag cross-checks that ``g`` sits on the
    branch it claims to come from.
    """
    g = validate_correlator(g)
    if _is_array(g):
        branch = (-_MAX, _G_TOL) if antiferro else (-_G_TOL, _MAX)
        _check_each("correlator", g, lambda v: concurrence(v, antiferro), *branch)
    elif antiferro and g > _G_TOL:
        raise DomainError(f"correlator {g!r} is positive; not an antiferromagnetic state")
    elif not antiferro and g < -_G_TOL:
        raise DomainError(f"correlator {g!r} is negative; not a ferromagnetic state")
    return _concurrence(g)


def _entanglement(c: FloatOrArray) -> FloatOrArray:
    if type(c) is float:
        return _binary_entropy(c)
    # c is max(0, c): a cell that is not > 0 is +0, and so is its entropy, so only the
    # entangled cells are mapped (none on the ferro branch)
    e, entangled = _numpy().zeros_like(c), c > 0.0
    e[entangled] = _binary_entropy(c[entangled])
    return e[()]  # a 0-d array's scalar, as its arithmetic gives; any other array as it is


def _binary_entropy(c: FloatOrArray) -> FloatOrArray:
    # E of a concurrence c in [0, 1]
    p = 0.5 * (1.0 + _map(math.sqrt, 1.0 - c * c))
    # 0 - x, not -x: the same for x != 0, and +0 (a separable state) where the
    # entropy rounds to 0, at c = 0 and for c below ~1e-8
    return 0.0 - (_xlog2(p) + _xlog2(1.0 - p))


def entanglement_of_formation(c_tilde: FloatOrArray) -> FloatOrArray:
    """Entanglement of formation (bits) for a state of concurrence ``c_tilde``."""
    if _is_array(c_tilde):
        c = _check_each("concurrence", c_tilde, entanglement_of_formation, -_G_TOL, 1.0 + _G_TOL)
    else:
        c = _real("concurrence", c_tilde, "lie in [0, 1]", -_G_TOL, 1.0 + _G_TOL)
    return _entanglement(_clip(c, 0.0, 1.0))


def entanglement_death_temperature(params: DimerParameters) -> float:
    """Sudden-death temperature T_e = (2/ln 3) |J|/k_B in kelvin, correctly rounded.

    Only antiferromagnetic dimers are ever entangled, so ferromagnetic
    parameters are rejected.
    """
    if params.j_over_kb > 0.0:
        raise DomainError("ferromagnetic dimers are separable at every temperature")
    t = _scaled_abs(_DEATH_TEMPERATURE, params.j_over_kb)
    if t == math.inf:
        raise DomainError(f"death temperature overflows a double at J/k_B = {params.j_over_kb!r}")
    return t


def _decimal(text: str) -> tuple[int, int]:
    """A decimal string as an exact integer ratio: "1.25" is (125, 100)."""
    whole, _, digits = text.partition(".")
    return int(whole + digits), 10 ** len(digits)


def _scaled_abs(scale: tuple[int, int], j: float) -> float:
    """``scale`` |j|, correctly rounded, for a scale held as an integer ratio
    (:func:`_decimal`).

    Formed as one exact integer quotient, which Python rounds correctly
    (subnormals included); inf past the largest double, as a float product.
    """
    (a, b), (n, m) = scale, abs(j).as_integer_ratio()
    try:
        return a * n / (b * m)
    except OverflowError:
        return math.inf


# Landmark scales k_B T/|J|, each held once to 40 decimal places of its 50-digit value, so
# that scale |J| takes one rounding: 2/ln 3 where the entanglement dies, and
# 2/ln((1 - 3g)/(1 + g)) at the Q = E and C = E crossing correlators
_DEATH_TEMPERATURE = _decimal("1.8204784532536747872284803314722140012253")
_QE_CROSSING_TEMPERATURE = _decimal("0.5880827911830967997269502058544505182281")
_CE_CROSSING_TEMPERATURE = _decimal("0.9260560603107420761612514709345847630719")
# k_B T_e/|J| as a double, correctly rounded (2.0 / math.log(3.0) rounds twice)
DEATH_TEMPERATURE_SCALE = _scaled_abs(_DEATH_TEMPERATURE, 1.0)


def powder_g(gx: float, gy: float, gz: float) -> float:
    """Root-mean-square g factor seen by a powder-averaged measurement: each component positive,
    the sum of their squares finite, and the square of the result not subnormal."""
    gx, gy, gz = (_real("g tensor components", v, "be positive", _POSITIVE) for v in (gx, gy, gz))
    g = math.sqrt((gx * gx + gy * gy + gz * gz) / 3.0)
    if g == math.inf:  # else its square, about the mean square, is finite too
        raise DomainError(f"g tensor {(gx, gy, gz)} is too large: the sum of its squares overflows")
    if g * g < sys.float_info.min:  # subnormal: chi would lose digits
        raise DomainError(f"g tensor {(gx, gy, gz)} is too small: its square underflows")
    return g


def bleaney_bowers(
    j_over_kb: float | np.ndarray, g_factor: float | np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """Bleaney-Bowers susceptibility in emu per mole of dimers (CGS).

    ``chi = N_A g^2 mu_B^2 (1 + G) / (2 k_B T)``, evaluated as ``g^2`` times
    the g = 1 curve of :func:`_unit_susceptibility`, so that no 1 + G
    cancels when cold.  Real numbers or numpy arrays; J = 0 gives G = 0, and ``t``
    must be positive and finite, an array's error naming its first bad element.
    """
    j_over_kb, g_factor = ((_check_each if _is_array(x) else _real)(name, x) for name, x in (
        ("j_over_kb", j_over_kb), ("g factor", g_factor)))
    return g_factor * g_factor * _unit_susceptibility(j_over_kb, _temperatures(t))[0]


def _unit_susceptibility(j: FloatOrArray, t: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """The g = 1 curve ``K = 2 N_A mu_B^2 / (k_B T (3 + e))`` and the capped
    factor ``e`` of :func:`_boltzmann`, which the fit's dK/dJ reuses.

    The cap would hold K up where a > _EXP_ARG_MAX; there 3 e^-a is below
    half an ulp of 1, and K = 2 N_A mu_B^2 e^-a / (k_B T), taken through
    its logarithm so that no factor underflows early (a NaN ``a`` gives a
    NaN there).  A float takes one of the two; an array takes the cold one
    in its cold cells, and a 0-d ``t`` gives a 0-d array when cold.
    """
    a, e = _boltzmann(j, t)
    if type(a) is float:  # _boltzmann's float path, so t is a float: an overflow is a quiet inf
        warm = a <= _EXP_ARG_MAX  # False for a NaN a
        return _warm_unit_susceptibility(t, e) if warm else _frozen_unit_susceptibility(t, a), e
    with _numpy().errstate(over="ignore"):  # numpy warns where T (3 + e) overflows; K is 0 there
        k = _warm_unit_susceptibility(t, e)
    cold = ~(a <= _EXP_ARG_MAX)
    if cold.any():
        np = _numpy()
        k, cold = np.array(k), np.asarray(cold)  # a 0-d result is a numpy scalar
        t_cold, a_cold = (np.broadcast_to(x, k.shape)[cold].tolist() for x in (t, a))
        k[cold] = list(map(_frozen_unit_susceptibility, t_cold, a_cold))
    return k, e


def _warm_unit_susceptibility(t: FloatOrArray, e: FloatOrArray) -> FloatOrArray:
    return 2.0 * CODATA.curie_prefactor / (t * (3.0 + e))


def _frozen_unit_susceptibility(t: float, a: float) -> float:
    # K of _unit_susceptibility where a > _EXP_ARG_MAX
    return math.exp(math.log(2.0 * CODATA.curie_prefactor) - math.log(t) - a)


def ppt_eigenvalues(g: float) -> np.ndarray:
    """Eigenvalues (ascending) of the partial transpose of the thermal state.

    The spectrum is ``{(1+3G)/4, (1-G)/4 (x3)}``; its minimum is negative
    exactly when the state is entangled (G < -1/3), which is also exactly
    when the concurrence is positive.
    """
    g = validate_correlator(_real("correlator", g))  # a float: an array is refused
    lam = _numpy().array([0.25 * (1.0 + 3.0 * g)] + [0.25 * (1.0 - g)] * 3)
    lam.sort()
    return lam


def measures_from_correlator(g: FloatOrArray) -> CorrelationSet:
    """Bundle all five correlation measures for a given correlator.

    The coupling branch is implied by the sign of ``g`` (the concurrence
    formula returns zero on the whole ferromagnetic range by itself).  For
    an array of correlators each measure is an array of the same shape.
    """
    return _measures(validate_correlator(g))


def _measures(g: FloatOrArray) -> CorrelationSet:
    # the measures of a correlator already in [-1, 1/3]
    i, c = _information(g)
    ct = _concurrence(g)
    # a NamedTuple's own construction, without the frame of its generated __new__
    return tuple.__new__(CorrelationSet, (i, c, i - c, ct, _entanglement(ct)))


def correlation_set(params: DimerParameters, t: FloatOrArray) -> CorrelationSet:
    """All five correlation measures of the dimer at temperature ``t`` (K)."""
    return _measures(correlator_from_temperature(params, t))  # G(T) is in [-1, 1/3]
