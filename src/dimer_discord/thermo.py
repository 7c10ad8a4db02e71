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
from typing import Callable, Sequence

from .dimer_core import (
    CODATA,
    G_MAX,
    G_MIN,
    DimerParameters,
    FloatOrArray,
    _clip,
    _map,
    _numpy,
    bleaney_bowers,
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
    _CLAMPED_HIGH, _CLAMPED_LOW, _REFUSED, TailModel, find_root, integrate_series_with_tail
)

__all__ = [
    "CODATA",
    "CM_PEAK_G_ANTIFERRO",
    "CM_PEAK_ANTIFERRO",
    "CM_PEAK_G_FERRO",
    "CM_PEAK_FERRO",
    "CHI_PEAK_W",
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

# W(3/e), the principal Lambert W value that places the antiferro
# susceptibility maximum; correctly rounded from 50 digits.
CHI_PEAK_W = 0.603545739535836

# measured values may overshoot the physical domain by this much (absolute
# in G) before they are declared inconsistent with the dimer model
_EXPERIMENTAL_G_TOL = 1e-2

# a measured peak height may exceed the branch maximum of c_m/R by this
# much and still be read as "at the peak"
_CM_PEAK_TOL = 1e-6


def clamp_measured_correlator(g: float, source: str = "measured value") -> float:
    """Pull a measured correlator back into [-1, 1/3], within tolerance."""
    if not math.isfinite(g):
        raise InconsistencyError(f"{source} implies a non-finite correlator")
    if G_MIN <= g <= G_MAX:
        return g
    clamped, status = _clamp_column(g)
    if status & _REFUSED:
        raise InconsistencyError(
            f"{source} implies correlator {g:.6g}, outside [-1, 1/3] by more than "
            f"{_EXPERIMENTAL_G_TOL:g}: inconsistent with an isolated dimer"
        )
    if status:
        edge = "-1" if status == _CLAMPED_LOW else "1/3"
        warnings.warn(f"{source} implies correlator {g:.6g}; clamped to {edge}", DataWarning,
                      stacklevel=3)
    return clamped


def _clamp_column(g: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """:func:`clamp_measured_correlator` on a float or a column, without its
    messages: ``(clamped, status)``, with ``_CLAMPED_LOW``/``_HIGH`` where it
    warns and ``_REFUSED`` where it raises (NaN included)."""
    tol = _EXPERIMENTAL_G_TOL
    g = _clip(g, G_MIN - 1.0, G_MAX + 1.0)  # finite from here on; NaN is refused
    status = (
        _CLAMPED_LOW * ((g < G_MIN) & (g >= G_MIN - tol))
        | _CLAMPED_HIGH * ((g > G_MAX) & (g <= G_MAX + tol))
        | _REFUSED * ((g < G_MIN - tol) | (g > G_MAX + tol))
    )
    return _clip(g, G_MIN, G_MAX), status


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
    if not math.isfinite(u_over_r):
        raise DomainError(f"internal energy must be finite, got {u_over_r!r}")
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
    if len(temperatures) == len(values) == 0:  # no samples: numpy is not needed
        if tail is None:
            raise DataError("empty record and no tail: nothing to integrate")
        return tail.t_start, -tail.integral()
    data_integral = integrate_series_with_tail(temperatures, values, None)  # validates too
    t_end = float(_numpy().asarray(temperatures, dtype=float)[-1])
    if tail is not None and tail.t_start < t_end:
        raise DataError(
            f"tail start {tail.t_start:g} K lies below the last sample {t_end:g} K"
        )
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
        if not math.isfinite(u0_over_r):
            raise DomainError(f"u0_over_r must be finite, got {u0_over_r!r}")
        u0 = float(u0_over_r)
    return t_end, u0 + data_integral


# ---------------------------------------------------------------------------
# magnetic specific heat (Schottky channel)


def _schottky_peak(params: DimerParameters) -> tuple[float, float]:
    """``(g_peak, cm_peak)`` of the coupling's branch."""
    if params.antiferro:
        return CM_PEAK_G_ANTIFERRO, CM_PEAK_ANTIFERRO
    return CM_PEAK_G_FERRO, CM_PEAK_FERRO


def specific_heat(params: DimerParameters, temperature: float) -> float:
    """c_m/R at a temperature: the Schottky anomaly of the level pair.

    Evaluated as 3 a^2 e^a / (1 + 3 e^a)^2 with a = 2J/(k_B T), using the
    exponential of -|a| so large couplings underflow to the correct zero
    instead of overflowing.
    """
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {temperature!r}")
    a = 2.0 * params.j_over_kb / temperature
    e = math.exp(-abs(a))
    if e == 0.0:  # frozen out, a infinite included
        return 0.0
    if a <= 0.0:
        return 3.0 * a * a * e / (1.0 + 3.0 * e) ** 2
    return 3.0 * a * a * e / (e + 3.0) ** 2


def specific_heat_from_correlator(g: FloatOrArray) -> FloatOrArray:
    """c_m/R written purely in terms of the correlator.

    Algebraically identical to :func:`specific_heat` once G(T) is
    substituted; exposed separately because measured correlators (neutron
    route) never come with a temperature attached.  Takes a float or an
    array, like the measures in :mod:`~dimer_discord.dimer_core`.
    """
    return _specific_heat(validate_correlator(g))


def _specific_heat(g: FloatOrArray) -> FloatOrArray:
    # c_m/R of an already validated correlator
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
    """
    if side not in ("hot", "cold"):
        raise DomainError(f"side must be 'hot' or 'cold', got {side!r}")
    if not math.isfinite(cm_over_r) or cm_over_r < 0.0:
        raise DomainError(f"c_m/R must be non-negative, got {cm_over_r!r}")
    if cm_over_r == 0.0:
        # the curve's exact zeros: infinite temperature on the hot flank,
        # the ground state on the cold one
        if side == "hot":
            return 0.0
        return G_MIN if params.antiferro else G_MAX
    g_peak, cm_peak = _schottky_peak(params)
    if params.antiferro:
        bracket = (g_peak, 0.0) if side == "hot" else (G_MIN, g_peak)
    else:
        bracket = (0.0, g_peak) if side == "hot" else (g_peak, G_MAX)
    if cm_over_r > cm_peak:
        if cm_over_r > cm_peak + _CM_PEAK_TOL:
            raise NoSolutionError(
                f"c_m/R = {cm_over_r:.6g} exceeds the branch maximum {cm_peak:.6g}; "
                "no dimer temperature reaches it"
            )
        warnings.warn(
            f"c_m/R = {cm_over_r:.6g} is above the branch maximum by less than "
            f"{_CM_PEAK_TOL:g}; reading it as the peak",
            DataWarning,
            stacklevel=2,
        )
        return g_peak
    # the solver never leaves the bracket, which lies inside [-1, 1/3]
    return find_root(lambda g: _specific_heat(g) - cm_over_r, bracket[0], bracket[1])


def schottky_maximum(params: DimerParameters) -> tuple[float, float]:
    """Temperature and height of the Schottky peak, ``(t_peak, cm_peak)``.

    At the stationary point a = 2J/(k_B T) equals 4/(1+3g*), which collapses
    to t_peak = (J/k_B)(1+3g*)/2 — positive on both branches.
    """
    g_peak, cm_peak = _schottky_peak(params)
    t_peak = params.j_over_kb / 2.0 * (1.0 + 3.0 * g_peak)  # halved first: no overflow
    return t_peak, cm_peak


# ---------------------------------------------------------------------------
# susceptibility (magnetometric channel)


def susceptibility(params: DimerParameters, temperature: float) -> float:
    """Molar susceptibility in emu per mole of dimers (CGS).

    The singlet-triplet (Bleaney-Bowers) curve
    ``chi = N_A g^2 mu_B^2 (1 + G) / (2 k_B T)`` of
    :func:`~dimer_discord.dimer_core.bleaney_bowers`; a g tensor triple is
    powder-averaged first.
    """
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {temperature!r}")
    g_factor = _require_g(params, "susceptibility")
    return float(bleaney_bowers(params.j_over_kb, g_factor, temperature))


def correlator_from_susceptibility(
    params: DimerParameters, chi: float, temperature: float
) -> float:
    """Invert Bleaney-Bowers for a measured susceptibility point.

    ``chi`` in emu per mole of dimers, ``temperature`` in kelvin.  Only the
    g factor of ``params`` enters; the coupling is not assumed.
    """
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {temperature!r}")
    if not math.isfinite(chi) or chi < 0.0:
        raise DomainError(f"susceptibility must be non-negative, got {chi!r}")
    g_factor = _require_g(params, "susceptibility inversion")
    return clamp_measured_correlator(
        _chi_correlator(g_factor, chi, temperature),
        f"susceptibility {chi:g} emu/mol at {temperature:g} K",
    )


def _chi_correlator(
    g_factor: float, chi: FloatOrArray, temperature: FloatOrArray
) -> FloatOrArray:
    # Bleaney-Bowers solved for G, before any clamp
    return 2.0 * temperature * chi / (CODATA.curie_prefactor * g_factor**2) - 1.0


def _chi_inversion(params: DimerParameters, temperatures: np.ndarray) -> Callable:
    """:func:`correlator_from_susceptibility` at ``temperatures`` as a map of chi
    columns, before its clamp: NaN where it refuses chi or T outright."""
    g_factor, np = _require_g(params, "susceptibility inversion"), _numpy()

    def invert(chi: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            g = _chi_correlator(g_factor, chi, temperatures)
        return np.where((temperatures > 0.0) & (chi >= 0.0), g, np.nan)

    return invert


def susceptibility_maximum(params: DimerParameters) -> tuple[float, float]:
    """Location and height of the antiferro susceptibility maximum.

    Closed form through the Lambert W function, with w = W(3/e)
    (:data:`CHI_PEAK_W`):

        k_B T_max / |J| = 2 / (1 + w)
        chi_max = N_A g^2 mu_B^2 w / (3 k_B |J|)

    Ferro dimers have no maximum (chi falls monotonically), so they are
    rejected.
    """
    if not params.antiferro:
        raise DomainError("only an antiferro dimer has a susceptibility maximum")
    g_factor = _require_g(params, "susceptibility maximum")
    j_abs = abs(params.j_over_kb)
    t_max = 2.0 * (j_abs / (1.0 + CHI_PEAK_W))  # divided first: no overflow
    height = CODATA.curie_prefactor * g_factor**2 * CHI_PEAK_W
    three_j = 3.0 * j_abs
    if three_j == math.inf:  # |J| above ~6e307: divided first there, and only there
        return t_max, height / 3.0 / j_abs
    return t_max, height / three_j
