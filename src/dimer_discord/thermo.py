"""Thermodynamic channels of the dimer: what a lab actually measures.

Three bulk observables pin the spin-spin correlator G of an isolated
Heisenberg pair, and through it every correlation measure:

* internal energy       u/R   = -(3/2) (J/k_B) G
* magnetic specific heat c_m/R = (3/16) (1+G)(1-3G) ln^2[(1+G)/(1-3G)]
* powder susceptibility  chi   = N_A g^2 mu_B^2 (1+G) / (2 k_B T)

Conventions throughout: couplings as J/k_B in kelvin, energies per mole of
dimers divided by the gas constant (so u/R is in kelvin and c_m/R is
dimensionless), susceptibility in CGS emu per mole of dimers.  The forward
maps take exact model parameters; the ``*_from_*`` inversions take measured
numbers, tolerate small experimental overshoot of the physical domain by
clamping (with a warning), and refuse values that are inconsistent with the
model beyond that tolerance.
"""

from __future__ import annotations

import math
import warnings
from operator import length_hint
from typing import NamedTuple, Sequence

from .dimer_core import (
    CODATA,
    G_MAX,
    G_MIN,
    DimerParameters,
    FloatOrArray,
    _clip,
    _decimal,
    _map,
    _numpy,
    _real,
    _scaled_abs,
    _temperature,
    _unit_susceptibility,
    correlator_from_temperature,
    validate_correlator,
)
from .errors import (
    DataError,
    DataWarning,
    DomainError,
    InconsistencyError,
    NoSolutionError,
)
from .numerics import (
    _CLAMPED_HIGH, _CLAMPED_LOW, _INFINITE, _NAN, _OUT_OF_BAND, _REFUSED, TailModel,
    _check_tail_start, integrate_series_with_tail,
)

__all__ = [
    "CODATA",
    "CM_PEAK_G_ANTIFERRO",
    "CM_PEAK_ANTIFERRO",
    "CM_PEAK_G_FERRO",
    "CM_PEAK_FERRO",
    "CHI_PEAK_W",
    "CHI_PEAK_TEMPERATURE_SCALE",
    "clamp_measured_correlator",
    "internal_energy",
    "correlator_from_internal_energy",
    "internal_energy_from_specific_heat",
    "specific_heat",
    "specific_heat_from_correlator",
    "correlator_from_specific_heat",
    "schottky_maximum",
    "susceptibility",
    "correlator_from_susceptibility",
    "susceptibility_maximum",
]


# Stationary points of c_m/R as a function of the correlator: roots of
# (1 + 3g) ln[(1+g)/(1-3g)] = 4, one per coupling sign.  The peak heights
# follow by substitution.  Frozen here so the hot/cold side split of the
# inversion below is exact and import stays cheap.
CM_PEAK_G_ANTIFERRO = -0.8019936160953929
CM_PEAK_ANTIFERRO = 1.0234905543865051
CM_PEAK_G_FERRO = 0.28397164067231203
CM_PEAK_FERRO = 0.16632055381487849


class _SchottkyCurve(NamedTuple):
    """The Schottky curve of one coupling sign.  For either sign of J the pair is one
    two-level system: a ground level of degeneracy d under one of degeneracy m, md = 3,
    x = |2J/k_B T| apart.  With e = e^-x its curve and correlator are

        c_m/R = 3 x^2 e / (d + m e)^2,    G = +-(e - 1) / (m (e - 1) + 4),

    G of the ground state's sign: (m, d) = (3, 1) antiferro (a singlet ground state,
    G = -1) and (1, 3) ferro (a triplet one, G = 1/3)."""

    m: float
    d: float
    ln_ratio: float  # ln(m/d): c_m/R -> (m/d) x^2 e on the cold flank
    ground: float  # G at T = 0
    g_peak: float  # G* at the peak, and c_m/R there
    c_peak: float
    x_peak: float  # x* = 4/|1 + 3g*|, between the hot flank (0, x*) and the cold (x*, inf)
    t_peak: tuple[int, int]  # k_B T*/|J| = |1 + 3g*|/2 to 40 decimals: T* takes one rounding
    curvature: float  # -f''(x*) of _schottky_x's log curve f: f = ln(c*/c) - f''(x*)(x - x*)^2/2


def _schottky_curve(m: float, d: float, g0: float, g: float, c: float, t: str) -> _SchottkyCurve:
    x = 4.0 / abs(1.0 + 3.0 * g)
    curvature = 2.0 / x**2 + 2.0 * m * d / (d * math.exp(0.5 * x) + m * math.exp(-0.5 * x)) ** 2
    return _SchottkyCurve(m, d, math.log(m / d), g0, g, c, x, _decimal(t), curvature)


_SCHOTTKY = {  # keyed by DimerParameters.antiferro; T* from 50 digits
    True: _schottky_curve(3.0, 1.0, G_MIN, CM_PEAK_G_ANTIFERRO, CM_PEAK_ANTIFERRO,
                          "0.7029904241430893671743521304383190836528"),
    False: _schottky_curve(1.0, 3.0, G_MAX, CM_PEAK_G_FERRO, CM_PEAK_FERRO,
                           "0.9259574610084680453896490147121383832487"),
}

_NEAR_PEAK = 0.99  # above this share of the peak height the quadratic root is the start

# c_m/R < 3 x^2 e^-x on both branches, below the smallest positive double
# from x = 800 on: every cold root of a positive c_m/R lies below this
_CM_COLD_X_MAX = 800.0

_X_RTOL = 1e-9  # past a Newton step this small the next one is below rounding
_F_NOISE = 2.0**-50  # f's rounding, 4 ulp of the size of its terms
_HOT_START = 4.0 / math.sqrt(3.0)  # the hot root 4 sqrt(c/3) is this times sqrt(c)

# W(3/e), the principal Lambert W value that places the antiferro
# susceptibility maximum, correctly rounded from 50 digits; k_B T_max / |J| =
# 2 / (1 + W(3/e)) there, to 40 decimal places so that T_max takes one
# rounding, and that scale as a correctly rounded double.
CHI_PEAK_W = 0.603545739535836
_CHI_PEAK_TEMPERATURE = _decimal("1.2472360162167385666559123412689088359036")
CHI_PEAK_TEMPERATURE_SCALE = _scaled_abs(_CHI_PEAK_TEMPERATURE, 1.0)

# measured values may overshoot the physical domain by this much (absolute
# in G) before they are declared inconsistent with the dimer model
_EXPERIMENTAL_G_TOL = 1e-2

# a measured peak height may exceed the branch maximum of c_m/R by this
# much and still be read as "at the peak"
_CM_PEAK_TOL = 1e-6


def clamp_measured_correlator(g: float, source: str = "measured value") -> float:
    """Pull a measured correlator back into [-1, 1/3], within tolerance."""
    g = _real("correlator", g)
    if G_MIN <= g <= G_MAX:
        return g
    clamped, status = _clamp_column(g)
    if status & _REFUSED:
        raise InconsistencyError(_correlator_text(source, g, status))
    warnings.warn(_correlator_text(source, g, status), DataWarning, stacklevel=3)
    return clamped


def _clamp_column(g: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """:func:`clamp_measured_correlator` on a float or a column, without its
    messages: ``(clamped, status)``, the status bits naming what it would say."""
    tol = _EXPERIMENTAL_G_TOL
    status = (
        _CLAMPED_LOW * ((g < G_MIN) & (g >= G_MIN - tol))
        | _CLAMPED_HIGH * ((g > G_MAX) & (g <= G_MAX + tol))
        | _OUT_OF_BAND * ((g < G_MIN - tol) | (g > G_MAX + tol))
        | _INFINITE * (abs(g) == math.inf)
        | _NAN * (g != g)
    )
    return _clip(g, G_MIN, G_MAX), status  # a NaN sent to -1


def _correlator_text(source: str, g: float, status: int) -> str:
    """What :func:`clamp_measured_correlator` says of ``g`` with these bits."""
    if status & (_NAN | _INFINITE):
        return f"{source} implies a non-finite correlator"
    if status & _OUT_OF_BAND:
        return (f"{source} implies correlator {g:.6g}, outside [-1, 1/3] by more than "
                f"{_EXPERIMENTAL_G_TOL:g}: inconsistent with an isolated dimer")
    edge = "-1" if status & _CLAMPED_LOW else "1/3"
    return f"{source} implies correlator {g:.6g}; clamped to {edge}"


def _require_g(params: DimerParameters, context: str) -> float:
    g_factor = params.scalar_g
    if g_factor is None:
        raise DomainError(f"{context} needs a g factor on the parameters")
    return g_factor


# ---------------------------------------------------------------------------
# internal energy (calorimetric channel)


def internal_energy(params: DimerParameters, temperature: float) -> float:
    """Magnetic internal energy u/R in kelvin, per mole of dimers."""
    g = correlator_from_temperature(params, temperature)
    return -1.5 * params.j_over_kb * g


def correlator_from_internal_energy(params: DimerParameters, u_over_r: float) -> float:
    """Invert u/R = -(3/2)(J/k_B) G for a measured energy."""
    u_over_r = _real("internal energy", u_over_r, "be finite")
    g = -2.0 * u_over_r / (3.0 * params.j_over_kb)
    return clamp_measured_correlator(g, f"internal energy {u_over_r:g} K")


def internal_energy_from_specific_heat(
    temperatures: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    *,
    tail: TailModel | None = None,
    u0_over_r: float | None = None,
) -> tuple[float, float]:
    """Integrate a c_m/R record up to its last sample.

    Returns ``(t_end, u_over_r)`` where ``u(t_end) = u(0) + integral of
    c_m/R from 0 to t_end``.  The ground state energy u(0)/R is taken from
    ``u0_over_r`` when given (e.g. (3/2) J/k_B from an established
    coupling); otherwise it is estimated calorimetrically as minus the full
    integral of the record, tail included.  Estimating it without a tail
    truncates the entropy balance and biases the result, so that path
    warns.

    With no samples at all the record is pure tail and the energy is
    anchored at the other end instead: u(infinity) = 0 exactly for the
    dimer, so ``u(t_start) = -a/t_start`` independent of any ``u0_over_r``.
    """
    if length_hint(temperatures, -1) == length_hint(values, -1) == 0:  # no samples, no numpy
        if tail is None:
            raise DataError("empty record and no tail: nothing to integrate")
        return tail.t_start, -tail.integral()
    data_integral = integrate_series_with_tail(temperatures, values, None)  # validates too
    t_end = float(temperatures[-1])  # a real number, in the last cell of a 1-d series
    _check_tail_start(tail, t_end)
    if u0_over_r is None:
        if tail is None:
            warnings.warn(
                "ground state energy estimated without a high-temperature tail; "
                "the truncated integral biases u(0) and everything derived from it",
                DataWarning,
                stacklevel=2,
            )
        u0 = -(data_integral + (tail.integral() if tail is not None else 0.0))
    else:
        u0 = _real("u0_over_r", u0_over_r, "be finite")
    return t_end, u0 + data_integral


# ---------------------------------------------------------------------------
# magnetic specific heat (Schottky channel)


def specific_heat(params: DimerParameters, temperature: float) -> float:
    """c_m/R at a temperature: the Schottky anomaly of the level pair.

    Evaluated as 3 a^2 e / (d + m e)^2 with a = -2J/(k_B T) = ln(q/p) and
    e = e^-|a| (:class:`_SchottkyCurve`), so large couplings underflow to the
    correct zero instead of overflowing.
    """
    temperature = _temperature(temperature)
    a = -2.0 * params.j_over_kb / temperature
    e = math.exp(-abs(a))
    if e == 0.0:  # frozen out, a infinite included
        return 0.0
    curve = _SCHOTTKY[a > 0.0]  # a > 0 on an antiferro dimer
    return 3.0 * a * a * e / (curve.d + curve.m * e) ** 2


def specific_heat_from_correlator(g: FloatOrArray) -> FloatOrArray:
    """c_m/R written purely in terms of the correlator.

    Algebraically identical to :func:`specific_heat` once G(T) is
    substituted; exposed separately because measured correlators (neutron
    route) never come with a temperature attached.  Takes a float or an
    array, like the measures in :mod:`~dimer_discord.dimer_core`.
    """
    g = validate_correlator(g)
    p = 1.0 + g
    q = 1.0 - 3.0 * g
    # at the ground states G = -1 and 1/3 a factor p or q is 0, and so is
    # c_m; shifting both by 1 there keeps the log finite
    edge = (p == 0.0) | (q == 0.0)
    r = _map(math.log, (p + edge) / (q + edge))
    return 0.1875 * p * q * r * r


def correlator_from_specific_heat(
    params: DimerParameters, cm_over_r: float, *, side: str = "hot"
) -> float:
    """Invert the Schottky curve for a measured c_m/R.

    The curve is two-valued: every height below the peak is reached once on
    each flank.  ``side="hot"`` picks the solution above the peak
    temperature (correlator nearer 0), ``side="cold"`` the one below.  A
    height above the branch maximum by more than a small tolerance has no
    solution; within the tolerance it is read as the peak itself.

    Both couplings run one curve in x = |2J/(k_B T)| (:class:`_SchottkyCurve`):
    a bracketed Newton iteration in x on its log form,
    ln(c_m/R) = ln(m/d) + 2 ln x - x - 2 ln(1 + m e^-x/d), starts from its
    asymptotic root (4 sqrt(c/3) hot, ln(m/(dc)) cold) and is held inside the
    side's bracket, (0, x*) hot and (x*, inf) cold, by bisection.  G is then
    +-expm1(-x)/(m expm1(-x) + 4), but -1 + 4e^-x/(3e^-x + 1) on the antiferro
    cold flank, which rounds 1 + G once.

    Accuracy, against the exact inversion of the given c_m/R: the relative
    error of G is about 2e-16 / sqrt(1 - c/c_peak), as each flank flattens
    toward the peak.  Up to 0.999 of the peak that is under 5e-15 on all four
    flanks (the tests hold it to 1e-13); far from the peak it is ~1e-15.
    On a cold flank the small 1 + G or 1/3 - G carries G's own rounding.
    """
    if side not in ("hot", "cold"):
        raise DomainError(f"side must be 'hot' or 'cold', got {side!r}")
    cm_over_r = _real("c_m/R", cm_over_r, "be non-negative", 0.0)
    curve, hot = _SCHOTTKY[params.antiferro], side == "hot"
    if cm_over_r == 0.0:  # the curve's zeros: T = inf hot, the ground state cold
        return 0.0 if hot else curve.ground
    if cm_over_r > curve.c_peak:
        if cm_over_r > curve.c_peak + _CM_PEAK_TOL:
            raise NoSolutionError(
                f"c_m/R = {cm_over_r:.6g} exceeds the branch maximum {curve.c_peak:.6g}; "
                "no dimer temperature reaches it"
            )
        warnings.warn(
            f"c_m/R = {cm_over_r:.6g} is above the branch maximum by less than "
            f"{_CM_PEAK_TOL:g}; reading it as the peak",
            DataWarning,
            stacklevel=2,
        )
        return curve.g_peak
    x = _schottky_x(cm_over_r, curve, hot)
    if not hot and params.antiferro:
        e = math.exp(-x)
        return 4.0 * e / (3.0 * e + 1.0) - 1.0  # 1 + G = p, rounded once
    em = math.expm1(-x)
    return math.copysign(em / (curve.m * em + 4.0), curve.ground)


def _schottky_x(cm: float, curve: _SchottkyCurve, hot: bool) -> float:
    """x = |a| where ``curve``'s c_m/R = ``cm``, 0 < cm <= its peak, on one flank.

    Newton on f(x) = ln(model c_m/R at x) - ln(cm), which is concave with its
    maximum at x*: increasing on the hot flank (0, x*), decreasing on the
    cold one.  Each evaluation narrows the bracket; a step that leaves it, or
    that is not under half the step before, is replaced by bisection.  The
    cold bracket (x*, inf) is cut at :data:`_CM_COLD_X_MAX`.  Above
    :data:`_NEAR_PEAK` of the peak c*, where f is nearly quadratic and
    Newton would only halve the distance to the root each step, the start
    is the root of that quadratic; and the iteration stops once |f| is
    within its own rounding.  That takes at most 4 evaluations from 0.99 of
    the peak to within an ulp of it.
    """
    m, d, ln_ratio, _, _, cm_peak, x_peak, _, curvature = curve
    root_cm = math.sqrt(cm)  # ln(x^2/cm) as 2 ln(x/sqrt(cm)): no x^2 or cm/3 underflows
    lo, hi = (0.0, x_peak) if hot else (x_peak, _CM_COLD_X_MAX)
    x = _HOT_START * root_cm if hot else ln_ratio - math.log(cm)  # the asymptotic root
    noise = 0.0  # below which |f| is rounding; farther out the step test stops first
    if cm > _NEAR_PEAK * cm_peak:  # start at the root of f's quadratic about the peak
        depth = math.log(cm_peak / cm)  # f(x*)
        if depth <= 0.0:  # the peak, to rounding
            return x_peak
        offset = math.sqrt(2.0 * depth / curvature)
        x = x_peak - offset if hot else x_peak + offset
        noise = _F_NOISE * (abs(2.0 * math.log(x_peak / root_cm)) + x_peak + 3.0)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    step_before = hi - lo
    while True:
        me = m * math.exp(-x)
        f = 2.0 * math.log(x / root_cm) + ln_ratio - x - 2.0 * math.log1p(me / d)
        slope = 2.0 / x - 1.0 + 2.0 * me / (d + me)
        if (f > 0.0) == hot:
            hi = x
        else:
            lo = x
        step = f / slope if slope else math.inf
        if abs(step) <= _X_RTOL * x:
            return x - step
        if not lo < x - step < hi or abs(step + step) > abs(step_before):
            if abs(f) <= noise:  # f is rounding, and so is the step: x is a root
                return x
            step = x - 0.5 * (lo + hi)
            if not lo < x - step < hi:  # the bracket is two adjacent doubles
                return x - step
        x, step_before = x - step, step


def schottky_maximum(params: DimerParameters) -> tuple[float, float]:
    """Temperature and height of the Schottky peak, ``(t_peak, cm_peak)``.

    At the stationary point a = -2J/(k_B T) equals -4/(1+3g*), which collapses
    to t_peak = (J/k_B)(1+3g*)/2 — positive on both branches, and correctly
    rounded: |1 + 3g*|/2 is held to 40 decimal places.
    """
    curve = _SCHOTTKY[params.antiferro]
    return _scaled_abs(curve.t_peak, params.j_over_kb), curve.c_peak


# ---------------------------------------------------------------------------
# susceptibility (magnetometric channel)


def susceptibility(params: DimerParameters, temperature: float) -> float:
    """Molar susceptibility in emu per mole of dimers (CGS).

    The singlet-triplet (Bleaney-Bowers) curve
    ``chi = N_A g^2 mu_B^2 (1 + G) / (2 k_B T)`` of
    :func:`~dimer_discord.dimer_core.bleaney_bowers`; a g tensor triple is
    powder-averaged first.
    """
    temperature = _temperature(temperature)  # a float, which keeps the curve off numpy
    g_factor = _require_g(params, "susceptibility")
    return g_factor * g_factor * _unit_susceptibility(params.j_over_kb, temperature)[0]


def correlator_from_susceptibility(
    params: DimerParameters, chi: float, temperature: float
) -> float:
    """Invert Bleaney-Bowers for a measured susceptibility point.

    ``chi`` in emu per mole of dimers, ``temperature`` in kelvin.  Only the
    g factor of ``params`` enters; the coupling is not assumed.
    """
    temperature = _temperature(temperature)
    chi = _real(_CHI_NAME, chi, _CHI_RULE, 0.0)
    g = _chi_correlator(_require_g(params, "susceptibility inversion"), chi, temperature)
    if G_MIN <= g <= G_MAX:  # nothing to say: the source text is not built
        return g
    return clamp_measured_correlator(g, _CHI_SOURCE.format(chi, temperature))


_CHI_NAME, _CHI_RULE = "susceptibility", "be non-negative"  # a column's remark words it too
_CHI_SOURCE = "susceptibility {:g} emu/mol at {:g} K"  # as the clamp names it


def _chi_correlator(
    g_factor: float, chi: FloatOrArray, temperature: FloatOrArray
) -> FloatOrArray:
    # Bleaney-Bowers solved for G, before any clamp
    return 2.0 * temperature * chi / (CODATA.curie_prefactor * g_factor**2) - 1.0


def _chi_column(g_factor: float, chi: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """:func:`correlator_from_susceptibility` on a chi column at positive
    ``temperatures``, before its clamp: NaN where it refuses a negative chi."""
    np = _numpy()
    with np.errstate(all="ignore"):
        return np.where(chi >= 0.0, _chi_correlator(g_factor, chi, temperatures), np.nan)


def susceptibility_maximum(params: DimerParameters) -> tuple[float, float]:
    """Location and height of the antiferro susceptibility maximum.

    Closed form through the Lambert W function, with w = W(3/e)
    (:data:`CHI_PEAK_W`):

        k_B T_max / |J| = 2 / (1 + w)    (:data:`CHI_PEAK_TEMPERATURE_SCALE`)
        chi_max = N_A g^2 mu_B^2 w / (3 k_B |J|)

    T_max is correctly rounded (inf past the largest double).  Ferro dimers have no maximum (chi falls monotonically), so they are
    rejected.
    """
    if not params.antiferro:
        raise DomainError("only an antiferro dimer has a susceptibility maximum")
    g_factor = _require_g(params, "susceptibility maximum")
    j_abs = abs(params.j_over_kb)
    t_max = _scaled_abs(_CHI_PEAK_TEMPERATURE, j_abs)
    height = CODATA.curie_prefactor * g_factor**2 * CHI_PEAK_W
    three_j = 3.0 * j_abs
    if three_j == math.inf:  # |J| above ~6e307: divided first there, and only there
        return t_max, height / 3.0 / j_abs
    return t_max, height / three_j
