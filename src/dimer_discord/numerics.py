"""Deterministic numeric helpers used by the thermodynamic channels.

Everything here is plain double-precision scalar/array work: a principal
branch Lambert W, bracketed root and crossing finders, a golden-section
maximizer, the trapezoid-with-tail integrator used for calorimetric data,
symmetric-difference uncertainty propagation, and the Bleaney-Bowers
susceptibility fit.  All routines are deterministic: identical inputs give
identical outputs, bit for bit.

The root finder is Brent's method written out here, and the fit reduces to
a root of one slope by variable projection, so numpy is the one dependency,
and only the series routines import it.  The Lambert W and the maximizer
work to fixed tolerances, stated in their docstrings.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, NamedTuple, Sequence

from .dimer_core import (
    _EXP_ARG_MAX, _POSITIVE, DimerParameters, FloatOrArray, _check_each, _clip, _is_array,
    _numpy, _real, _unit_susceptibility, _validated_make,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DataError,
    DataWarning,
    DomainError,
    InconsistencyError,
    PropagationWarning,
)

__all__ = [
    "ValueWithUncertainty",
    "TailModel",
    "FitResult",
    "lambert_w",
    "find_root",
    "find_crossing",
    "maximize_scalar",
    "integrate_series_with_tail",
    "propagate_uncertainty",
    "fit_bleaney_bowers",
]

_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)  # golden-section shrink factor
_ROOT_RTOL = 4.0 * sys.float_info.epsilon  # relative part of the root stop rule
# |J| / T_min the fit searches: exp(2|J|/T) is capped above, chi is Curie's to ~1e-6 below
_FIT_J_MIN, _FIT_J_MAX = 1e-6, 0.5 * _EXP_ARG_MAX

# Status bits of a measured row, 0 where it passes without a message: its G
# clamped onto -1 or 1/3, or refused as NaN (an inversion's mark for a value it
# refuses), infinite or out of band; then for sigma_G (sigma_Q: times _OF_Q) an
# endpoint outside the domain (one-sided), both (undefined), or one clamped.
_CLAMPED_LOW, _CLAMPED_HIGH, _NAN, _INFINITE, _OUT_OF_BAND = 1, 2, 4, 8, 16
_UPPER_OUT, _LOWER_OUT, _UNDEFINED, _ENDPOINT_CLAMPED, _OF_Q = 32, 64, 128, 256, 32
_CLAMPED, _REFUSED = _CLAMPED_LOW | _CLAMPED_HIGH, _NAN | _INFINITE | _OUT_OF_BAND
_ONE_SIDED, _DROPPED = _UPPER_OUT | _LOWER_OUT, _REFUSED | _UNDEFINED | _UNDEFINED * _OF_Q
_UNDEFINED_TEXT = "function undefined at both {!r} and {!r}"  # propagate_uncertainty's error


class _ValueWithUncertainty(NamedTuple):
    value: float
    sigma: float = 0.0


class ValueWithUncertainty(_ValueWithUncertainty):
    """A scalar with a one-sigma spread (sigma = 0 means exact); each may be
    any real number, numpy scalars included, and is stored as a float."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, value: float, sigma: float = 0.0):
        value = _real("value", value, "be finite")
        sigma = _real("sigma", sigma, "be finite and >= 0", 0.0)
        return tuple.__new__(cls, (value, sigma))


class _TailModel(NamedTuple):
    a: float
    t_start: float


class TailModel(_TailModel):
    """High-temperature continuation ``c(T) = a / T**2`` above ``t_start``;
    each may be any real number, numpy scalars included, and is stored as a
    float."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, a: float, t_start: float):
        a = _real("tail coefficient", a, "be >= 0", 0.0)
        t_start = _real("tail start", t_start, "be positive", _POSITIVE)
        return tuple.__new__(cls, (a, t_start))

    def integral(self) -> float:
        """Exact integral of the tail over [t_start, infinity)."""
        return self.a / self.t_start


class FitResult(NamedTuple):
    """Outcome of a susceptibility fit."""

    parameters: DimerParameters
    residual_norm: float
    evaluations: int
    converged: bool

    @property
    def j_over_kb(self) -> float:
        return self.parameters.j_over_kb

    @property
    def g_factor(self) -> float:
        return self.parameters.g_factor


def lambert_w(x: float) -> float:
    """Principal branch W(x) of ``w * exp(w) = x`` for ``x >= -1/e``.

    Halley refinement started from ``log1p(x)`` (or the square-root branch
    expansion close to -1/e), stopped when the residual ``|w e^w - x|``
    drops below ``1e-12 |x|``.

    Raises
    ------
    DomainError
        If ``x < -1/e``.
    ConvergenceError
        If the residual target is not met within 50 steps.
    """
    x = _real("lambert_w argument", x, "be finite")
    branch_point = -1.0 / math.e
    if x < branch_point:
        if x < branch_point - 1e-15:
            raise DomainError(f"lambert_w({x!r}) undefined: argument below -1/e")
        x = branch_point
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # near the branch point the log start is poor; use w = -1 + sqrt(2(ex+1))
        w = -1.0 + math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
    else:
        w = math.log1p(x)

    target = 1e-12 * abs(x)
    for _ in range(51):  # the start and the iterate of each of 50 steps
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= target:
            return w
        wp1 = w + 1.0
        # Halley: f' = e^w (w+1), f'' = e^w (w+2)
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ConvergenceError(f"lambert_w({x!r}) did not reach tolerance in 50 steps")


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> float:
    """Root of ``f`` inside the bracket ``[lo, hi]``.

    The endpoints must straddle a sign change (an exact zero at either end,
    of either sign, is returned directly).  Brent's method (Brent 1973,
    ch. 4, step for step as scipy's ``brentq``): inverse quadratic or
    secant steps, bisection where they would not shrink the bracket fast
    enough.  It stops at the current best point ``x`` once half the bracket
    is below ``(tol + 4 eps |x|) / 2``, or at an exact zero.  ``f`` is
    evaluated once per endpoint and once per iteration.

    Raises
    ------
    DomainError
        If the bracket is not finite and increasing, ``tol`` is not positive
        and finite, ``max_iter < 1``, or ``f`` returns NaN.
    BracketError
        If ``f(lo)`` and ``f(hi)`` share a sign.
    ConvergenceError
        If the solver does not meet ``tol`` within ``max_iter`` iterations.
    """
    lo, hi = _real("lo", lo), _real("hi", hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    tol = _real("tol", tol, "be positive and finite", _POSITIVE)
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")

    def value(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise DomainError(f"f({x!r}) is NaN")
        return fx

    xpre, fpre = lo, value(lo)
    xcur, fcur = hi, value(hi)
    if fpre == 0.0:
        return lo
    if fcur == 0.0:
        return hi
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={fpre:.6g}, f(hi)={fcur:.6g}"
        )
    # xcur is the best point so far, xblk the far end of the bracket, xpre
    # the previous point; spre and scur are the last two step lengths.
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)  # 0 if it underflows: bisect, as brentq does
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"root not located to {tol:g} within {max_iter} iterations on [{lo:g}, {hi:g}]"
    )


def find_crossing(
    f: Callable[[float], float],
    g: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Point where two curves cross inside ``[lo, hi]``.

    Returns ``(x, f(x))``, with ``x`` located by :func:`find_root` to its
    default tolerance.  The difference ``f - g`` must change sign across
    the bracket; a pair of curves that agree at both endpoints (e.g. the
    same curve twice) is rejected rather than guessed at.  The difference
    is evaluated once per endpoint: the root finder gets those values back.
    """
    def diff(x: float) -> float:
        return f(x) - g(x)

    lo, hi = _real("lo", lo), _real("hi", hi)
    endpoints = {lo: diff(lo), hi: diff(hi)}
    if endpoints[lo] == 0.0 and endpoints[hi] == 0.0:
        raise BracketError("curves coincide at both bracket endpoints; no isolated crossing")
    x = find_root(lambda x: endpoints.pop(x) if x in endpoints else diff(x), lo, hi)
    return x, f(x)


def maximize_scalar(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Maximum of a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    The bracket is shrunk until its width falls below ``1e-9 (hi - lo)``,
    within 200 steps or :class:`ConvergenceError`; returns
    ``(x_max, f(x_max))`` at the final midpoint.
    """
    lo, hi = _real("lo", lo), _real("hi", hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid interval [{lo!r}, {hi!r}]")
    span = hi - lo
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(200):
        if (b - a) <= 1e-9 * span:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    else:
        raise ConvergenceError("interval not reduced to tolerance in 200 iterations")
    x = 0.5 * (a + b)
    return x, f(x)


def integrate_series_with_tail(
    temperatures: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    tail: TailModel | None = None,
) -> float:
    """Integral over (0, infinity) of a positive sampled curve.

    Three pieces: a linear ramp from the origin to the first sample, the
    trapezoid rule across the samples, and the analytic ``a/T**2`` tail
    (contributing ``a/t_start``).  Written for magnetic specific heat
    ``c_m(T)/R``, where the T->0 ramp and the 1/T**2 tail are the physically
    correct continuations.

    Negative samples (noise undershoot) are clamped to zero with a warning;
    an empty series with a tail gives the pure tail integral.
    """
    tail_part = tail.integral() if tail is not None else 0.0
    t, v = _curve(temperatures, values, "values")
    if t.size:
        np = _numpy()
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise DataError("temperatures must be positive and strictly increasing")
        negative = v < 0.0
        if negative.any():
            warnings.warn(
                f"clamped {int(negative.sum())} negative series value(s) to zero",
                DataWarning,
                stacklevel=2,
            )
            v = np.where(negative, 0.0, v)
        _check_tail_start(tail, t[-1])
        return float(0.5 * t[0] * v[0] + np.trapezoid(v, t)) + tail_part
    return tail_part


def _reals(name: str, cells: Sequence[float] | np.ndarray) -> np.ndarray:
    """A series column as a float array; a DataError naming it unless each cell is a real
    number, a bool included, as :func:`~dimer_discord.dimer_core._check_each` reads an array."""
    try:
        return _check_each(name, _numpy().asarray(cells))
    except DomainError:
        raise DataError(f"{name} must hold real numbers only") from None


def _curve(
    temperatures: Sequence[float] | np.ndarray, values: Sequence[float] | np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """A sampled curve as two float arrays, its values column called ``name``: each cell
    a real number, both 1-d and of one length, and every cell finite."""
    t, v = _reals("temperatures", temperatures), _reals(name, values)
    if t.ndim != 1 or v.shape != t.shape:
        raise DataError(f"temperatures and {name} must be 1-d arrays of equal length")
    if not (_numpy().isfinite(t).all() and _numpy().isfinite(v).all()):
        raise DataError("series contains non-finite entries")
    return t, v


def _check_tail_start(tail: TailModel | None, t_end: float) -> None:
    """Refuse a tail that starts below ``t_end``, the last sample of its record."""
    if tail is not None and tail.t_start < t_end:
        raise DataError(f"tail start {tail.t_start:g} K lies below the last sample {t_end:g} K")


def propagate_uncertainty(
    f: Callable[[float], float], x: ValueWithUncertainty
) -> ValueWithUncertainty:
    """Push ``x`` through ``f`` with a symmetric-difference sigma.

    ``sigma_out = |f(x+sigma) - f(x-sigma)| / 2``.  If one endpoint falls
    outside the domain of ``f`` the difference is taken one-sided instead
    and a :class:`PropagationWarning` is emitted.
    """
    if not isinstance(x, ValueWithUncertainty):  # a plain (value, sigma) tuple included
        raise DomainError(f"propagate_uncertainty takes a ValueWithUncertainty, got {x!r}")
    center = f(x.value)
    if x.sigma == 0.0:
        return ValueWithUncertainty(center, 0.0)

    def attempt(point: float) -> tuple[float, int]:
        try:
            return f(point), 0
        except ValueError:
            return center, _REFUSED

    sigma, status = _secant_column(attempt, center, x.value, x.sigma)
    if status & _UNDEFINED:
        raise DomainError(_UNDEFINED_TEXT.format(x.value - x.sigma, x.value + x.sigma))
    if status:
        warnings.warn(_one_sided_text(status), PropagationWarning, stacklevel=2)
    return ValueWithUncertainty(center, sigma)


def _one_sided_text(status: int, name: str = "sigma") -> str:
    side = "upper" if status & _UPPER_OUT else "lower"
    return f"{side} endpoint outside the function domain; {name} taken one-sided"


def _secant_column(
    f: Callable[[FloatOrArray], tuple], center: FloatOrArray, x: FloatOrArray, sigma: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray]:
    """The secant of :func:`propagate_uncertainty` on floats or columns, without
    its messages: ``(sigma_f, status)``.  ``f`` gives ``(values, status)``,
    a ``_REFUSED`` bit where undefined and a ``_CLAMPED`` one where clamped,
    and ``center = f(x)``; no endpoint counts where ``sigma`` is 0."""
    spread = sigma > 0.0
    if not (spread.any() if _is_array(spread) else spread):  # no endpoint: f is not taken
        return abs(center) * 0.0, 0 * spread  # 0, or NaN where center is, as the secant is
    upper, upper_status = f(x + sigma)
    lower, lower_status = f(x - sigma)
    up = spread & ((upper_status & _REFUSED) == 0)
    lo = spread & ((lower_status & _REFUSED) == 0)
    sigma_f = (
        0.5 * abs(upper - lower) * (up & lo)
        + abs(upper - center) * (up > lo)
        + abs(lower - center) * (lo > up)
    )
    status = (
        _ENDPOINT_CLAMPED * (((upper_status * up | lower_status * lo) & _CLAMPED) != 0)
        | _UPPER_OUT * (lo > up)
        | _LOWER_OUT * (up > lo)
        | _UNDEFINED * (spread > (up | lo))
    )
    return sigma_f, status


def fit_bleaney_bowers(
    temperatures: Sequence[float] | np.ndarray,
    chi: Sequence[float] | np.ndarray,
    init: DimerParameters,
    *,
    sigma: Sequence[float] | np.ndarray | None = None,
) -> FitResult:
    """Least-squares fit of the dimer susceptibility to a measured curve.

    The model is the molar (per mole of dimers, CGS-emu) susceptibility
    ``chi(T) = N_A g^2 mu_B^2 (1 + G(T)) / (2 k_B T)`` of
    :func:`~dimer_discord.dimer_core.bleaney_bowers`, linear in g^2:
    ``chi = g^2 K(J, T)``.  By variable projection (Golub and Pereyra 1973)
    the best g^2 for each J is ``sum(w^2 chi K) / sum(w^2 K^2)``, and the
    slope of the cost left in ``x = log|J|`` is analytic (envelope theorem).
    From the guess, the search walks downhill in x in doubling steps until
    that slope changes sign, then solves slope = 0 with :func:`find_root`.
    J keeps the sign of the guess, and ``1e-6 <= |J| / T_min <= 350`` (above
    that, ``exp(2|J|/T)`` saturates).  J and g come out within ~1e-15 of the
    50-digit optimum on the golden-case fixture.

    Parameters
    ----------
    temperatures, chi : array_like
        Measured points, kelvin and emu/mol of dimers.  At least three
        points spanning more than one temperature.
    init : DimerParameters
        Starting guess.  Only its coupling is read: it seeds the search and
        fixes the sign of J.  Its ``g_factor`` may be None; g is solved for.
    sigma : array_like, optional
        One-sigma errors; residuals are weighted by ``w = 1/sigma``.

    Returns
    -------
    FitResult
        Fitted parameters, weighted residual 2-norm, number of model
        evaluations, and the convergence flag.  If the slope keeps its sign
        up to the end of the walk (no minimum on the guess's branch), the
        cost falls all the way there, and that end is returned with
        ``converged=False``.

    Raises
    ------
    InconsistencyError
        If the best g^2 is not positive (no positive susceptibility curve
        fits the data).
    """
    t, y = _curve(temperatures, chi, "chi")
    if t.size < 3:
        raise DataError(f"need at least 3 points to fit two parameters, got {t.size}")
    np = _numpy()
    t_min = float(t.min())
    if t_min <= 0.0:
        raise DataError("temperatures must be positive")
    if _FIT_J_MIN * t_min < sys.float_info.min:  # the smallest |J| searched would underflow
        raise DataError(f"lowest temperature {t_min:g} K is too low to fit")
    if np.ptp(t) == 0.0:
        raise DataError("degenerate series: all points at the same temperature")
    s = np.ones_like(y) if sigma is None else _reals("sigma", sigma)
    if s.shape != t.shape or np.any(~np.isfinite(s)) or np.any(s <= 0.0):
        raise DataError("sigma must be positive, finite, and match the series length")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        w = 1.0 / s
        wy = w * y
        cost = float(wy @ wy)  # that of g = 0: every cost the search meets is at most this
    if not cost < math.inf:
        raise DataError("chi/sigma too large to fit: the sum of its squares overflows")
    # wy over a power of two (exact) so that no square of it underflows; undone on g^2 and the norm
    y_exp = math.frexp(float(np.abs(wy).max()))[1]
    wy, y_scale = np.ldexp(wy, -y_exp), 2.0 ** y_exp

    sign = math.copysign(1.0, init.j_over_kb)
    x_lo, x_hi = math.log(_FIT_J_MIN * t_min), math.log(_FIT_J_MAX * t_min)
    seen = {}  # x -> (slope of the cost in x, g^2, residual norm)

    def slope(x: float) -> float:
        if x not in seen:
            j = sign * math.exp(x)
            with np.errstate(over="ignore"):  # T (3 + e) past the largest double: K, dK/dJ are 0
                k, e = _unit_susceptibility(j, t)
                u = w * k
                scale = float(u.max())  # so that no square of u underflows
                u = u / scale
                beta = float(u @ wy) / float(u @ u)  # g^2 * scale / y_scale
                r = beta * u - wy
                # d(cost)/dx = J d(cost)/dJ, and w dK/dJ = scale * u * 2e / (T (3 + e))
                dx = 2.0 * j * beta * float(r @ (u * (2.0 * e / (t * (3.0 + e)))))
            seen[x] = (dx, beta / scale * y_scale, math.sqrt(float(r @ r)) * y_scale)
        return seen[x][0]

    # walk downhill in x until the slope changes sign (or is zero where it starts)
    x = _clip(math.log(abs(init.j_over_kb)), x_lo, x_hi)
    edge = x_hi if slope(x) < 0.0 else x_lo
    step = math.copysign(0.5, edge - x)
    converged = slope(x) == 0.0
    while not converged and x != edge:
        x_next = _clip(x + step, x_lo, x_hi)
        if math.copysign(1.0, slope(x_next)) != math.copysign(1.0, slope(x)):
            x = find_root(slope, min(x, x_next), max(x, x_next), tol=_ROOT_RTOL)
            converged = True
        else:
            x, step = x_next, 2.0 * step
    _, g2, norm = seen[x]
    if not g2 > 0.0:
        raise InconsistencyError(f"best g^2 is {g2:.6g} <= 0: no susceptibility curve fits")
    return FitResult(
        parameters=DimerParameters(sign * math.exp(x), math.sqrt(g2)),
        residual_norm=norm,
        evaluations=len(seen),
        converged=converged,
    )
