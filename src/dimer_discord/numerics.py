"""Deterministic numeric helpers used by the thermodynamic channels.

Everything here is plain double-precision scalar/array work: a principal
branch Lambert W, bracketed root and crossing finders, a golden-section
maximizer, the trapezoid-with-tail integrator used for calorimetric data,
symmetric-difference uncertainty propagation, and the Bleaney-Bowers
susceptibility fit.  All routines are deterministic: identical inputs give
identical outputs, bit for bit.

The root finder is Brent's method written out here, so importing the package
needs numpy alone; scipy is loaded only by the fit, on its first call.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dimer_core import DimerParameters, bleaney_bowers
from .errors import (
    BracketError,
    ConvergenceError,
    DataError,
    DataWarning,
    DomainError,
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


@dataclass(frozen=True)
class ValueWithUncertainty:
    """A scalar with a one-sigma spread (sigma = 0 means exact)."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"value must be finite, got {self.value!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class TailModel:
    """High-temperature continuation ``c(T) = a / T**2`` above ``t_start``."""

    a: float
    t_start: float

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a < 0.0:
            raise DomainError(f"tail coefficient must be >= 0, got {self.a!r}")
        if not math.isfinite(self.t_start) or self.t_start <= 0.0:
            raise DomainError(f"tail start must be positive, got {self.t_start!r}")

    def integral(self) -> float:
        """Exact integral of the tail over [t_start, infinity)."""
        return self.a / self.t_start


@dataclass(frozen=True)
class FitResult:
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

    @property
    def iterations(self) -> int:
        return self.evaluations


def lambert_w(x: float, *, tol: float = 1e-12, max_iter: int = 50) -> float:
    """Principal branch W(x) of ``w * exp(w) = x`` for ``x >= -1/e``.

    Halley refinement started from ``log1p(x)`` (or the square-root branch
    expansion close to -1/e), stopped when the residual ``|w e^w - x|``
    drops below ``tol`` relative to ``|x|``.

    Raises
    ------
    DomainError
        If ``x < -1/e``.
    ConvergenceError
        If the residual target is not met within ``max_iter`` steps.
    """
    x = float(x)
    branch_point = -1.0 / math.e
    if not math.isfinite(x):
        raise DomainError(f"lambert_w argument must be finite, got {x!r}")
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

    target = tol * abs(x)
    for _ in range(max_iter):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= target:
            return w
        wp1 = w + 1.0
        # Halley: f' = e^w (w+1), f'' = e^w (w+2)
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    if abs(w * math.exp(w) - x) <= target:
        return w
    raise ConvergenceError(f"lambert_w({x!r}) did not reach tolerance in {max_iter} steps")


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
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
    *,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Point where two curves cross inside ``[lo, hi]``.

    Returns ``(x, f(x))``.  The difference ``f - g`` must change sign across
    the bracket; a pair of curves that agree at both endpoints (e.g. the
    same curve twice) is rejected rather than guessed at.  The difference
    is evaluated once per endpoint: the root finder gets those values back.
    """
    def diff(x: float) -> float:
        return f(x) - g(x)

    lo, hi = float(lo), float(hi)
    endpoints = {lo: diff(lo), hi: diff(hi)}
    if endpoints[lo] == 0.0 and endpoints[hi] == 0.0:
        raise BracketError("curves coincide at both bracket endpoints; no isolated crossing")
    x = find_root(lambda x: endpoints.pop(x) if x in endpoints else diff(x), lo, hi, tol=tol)
    return x, f(x)


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Maximum of a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    The bracket is shrunk until its width falls below ``rel_tol * (hi - lo)``;
    returns ``(x_max, f(x_max))`` at the final midpoint.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"invalid interval [{lo!r}, {hi!r}]")
    if rel_tol <= 0.0:
        raise DomainError("rel_tol must be positive")
    span = hi - lo
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * span:
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
        raise ConvergenceError(f"interval not reduced to tolerance in {max_iter} iterations")
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
    t = np.asarray(temperatures, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.shape != t.shape:
        raise DataError("temperatures and values must be 1-d arrays of equal length")
    if t.size:
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DataError("series contains non-finite entries")
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
    if tail is not None and t.size and tail.t_start < t[-1]:
        raise DataError(
            f"tail start {tail.t_start:g} K lies below the last sample {t[-1]:g} K"
        )
    data_part = 0.0
    if t.size:
        data_part = 0.5 * t[0] * v[0] + float(np.trapezoid(v, t))
    tail_part = tail.integral() if tail is not None else 0.0
    return data_part + tail_part


def propagate_uncertainty(
    f: Callable[[float], float], x: ValueWithUncertainty
) -> ValueWithUncertainty:
    """Push ``x`` through ``f`` with a symmetric-difference sigma.

    ``sigma_out = |f(x+sigma) - f(x-sigma)| / 2``.  If one endpoint falls
    outside the domain of ``f`` the difference is taken one-sided instead
    and a :class:`PropagationWarning` is emitted.
    """
    center = f(x.value)
    if x.sigma == 0.0:
        return ValueWithUncertainty(center, 0.0)

    def attempt(point: float) -> float | None:
        try:
            return f(point)
        except ValueError:
            return None

    upper = attempt(x.value + x.sigma)
    lower = attempt(x.value - x.sigma)
    if upper is None and lower is None:
        raise DomainError(
            f"function undefined at both {x.value - x.sigma!r} and {x.value + x.sigma!r}"
        )
    if upper is None or lower is None:
        side = "upper" if upper is None else "lower"
        warnings.warn(
            f"{side} endpoint outside the function domain; sigma taken one-sided",
            PropagationWarning,
            stacklevel=2,
        )
        known = lower if upper is None else upper
        sigma = abs(known - center)
    else:
        sigma = 0.5 * abs(upper - lower)
    return ValueWithUncertainty(center, sigma)


def fit_bleaney_bowers(
    temperatures: Sequence[float] | np.ndarray,
    chi: Sequence[float] | np.ndarray,
    init: DimerParameters,
    *,
    sigma: Sequence[float] | np.ndarray | None = None,
    step_tol: float = 1e-8,
    max_evaluations: int = 10_000,
) -> FitResult:
    """Least-squares fit of the dimer susceptibility to a measured curve.

    The model is the molar (per mole of dimers, CGS-emu) susceptibility
    ``chi(T) = N_A g^2 mu_B^2 (1 + G(T)) / (2 k_B T)`` of
    :func:`~dimer_discord.dimer_core.bleaney_bowers`; the free parameters
    are ``j_over_kb`` and the g factor.  Internally g is parameterized as a
    square so it stays positive, and the sign of the coupling stays on the
    side chosen by the initial guess in all practical fits.  Damped
    least-squares iteration (scipy's ``least_squares``, Levenberg-Marquardt,
    imported on the first call); converged means the relative parameter step
    fell below ``step_tol``.

    Parameters
    ----------
    temperatures, chi : array_like
        Measured points, kelvin and emu/mol of dimers.  At least three
        points spanning more than one temperature.
    init : DimerParameters
        Starting guess; its ``g_factor`` must be set (a tensor triple is
        powder-averaged).
    sigma : array_like, optional
        One-sigma errors; residuals are weighted by ``1/sigma``.

    Returns
    -------
    FitResult
        Fitted parameters, weighted residual 2-norm, number of model
        evaluations, and the convergence flag.  On hitting the evaluation
        budget the best parameters so far are returned with
        ``converged=False``.
    """
    t = np.asarray(temperatures, dtype=float)
    y = np.asarray(chi, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise DataError("temperatures and chi must be 1-d arrays of equal length")
    if t.size < 3:
        raise DataError(f"need at least 3 points to fit two parameters, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise DataError("series contains non-finite entries")
    if np.any(t <= 0.0):
        raise DataError("temperatures must be positive")
    if np.ptp(t) == 0.0:
        raise DataError("degenerate series: all points at the same temperature")
    w = np.ones_like(y)
    if sigma is not None:
        s = np.asarray(sigma, dtype=float)
        if s.shape != t.shape or np.any(~np.isfinite(s)) or np.any(s <= 0.0):
            raise DataError("sigma must be positive, finite, and match the series length")
        w = 1.0 / s

    g0 = init.scalar_g
    if g0 is None:
        raise DomainError("initial guess must carry a g factor")

    def residuals(p: np.ndarray) -> np.ndarray:
        return (bleaney_bowers(p[0], p[1] * p[1], t) - y) * w

    from scipy.optimize import least_squares  # the only scipy use; kept off the import path

    x0 = np.array([init.j_over_kb, math.sqrt(g0)])
    result = least_squares(
        residuals,
        x0,
        method="lm",
        x_scale=np.maximum(np.abs(x0), 1e-3),
        xtol=step_tol,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=max_evaluations,
    )
    j_fit = float(result.x[0])
    g_fit = float(result.x[1] * result.x[1])
    return FitResult(
        parameters=DimerParameters(j_fit, g_fit),
        residual_norm=float(np.linalg.norm(result.fun)),
        evaluations=int(result.nfev),
        converged=bool(result.status > 0),
    )
