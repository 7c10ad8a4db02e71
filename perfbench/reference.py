"""Closed forms of the dimer model, written from the paper's formulas.

The benchmark checks the program's outputs against these, so nothing here
imports the package.  Arrays use numpy doubles (large CLI outputs); single
points use mpmath at 40 digits (landmarks and the library calls).

The program's input handling is replicated where it decides what a row
becomes: the 1e-9 fuzz on direct correlator inputs, the 1e-2 tolerance on
measured correlators (clamped inside it, rejected beyond it), and the
symmetric secant for uncertainties that falls back to one side when an
endpoint leaves the domain.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 40

G_MIN = -1.0
G_MAX = 1.0 / 3.0
DIRECT_TOL = 1e-9  # fuzz a direct correlator may carry past [-1, 1/3]
MEASURED_TOL = 1e-2  # a measured correlator may overshoot this far and be clamped

# CODATA 2018, CGS-emu: N_A mu_B^2 / k_B in emu K/mol
AVOGADRO = 6.02214076e23
BOHR_MAGNETON = 9.2740100783e-21
BOLTZMANN = 1.380649e-16
CURIE = AVOGADRO * BOHR_MAGNETON**2 / BOLTZMANN

PRESETS = {
    "copper-nitrate-calorimetric": (-2.59, None),
    "copper-nitrate-magnetometric": (-2.56, 2.11),
    "copper-acetate-hydrate": (-204.0, 2.13),
    "copper-acetate-anhydrous": (-216.0, 2.17),
    "cu2l-oac-ferro": (35.4, 2.13),
}

# row status codes shared by the generator and the checker
OK, CLAMPED, REJECTED = 0, 1, 2


# ---------------------------------------------------------------------------
# numpy: whole columns at once


def xlog2(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(x < 1e-30, 1.0, x)
    return np.where(x < 1e-30, 0.0, x * np.log2(safe))


def correlator(j, t):
    """G(T) = -1 + 4 / (3 + exp(-2J/T)), with the T -> 0 limit past exp(700)."""
    t = np.asarray(t, dtype=float)
    a = -2.0 * j / t
    limit = G_MIN if j < 0.0 else G_MAX
    return np.where(np.abs(a) > 700.0, limit, -1.0 + 4.0 / (3.0 + np.exp(np.clip(a, -700, 700))))


def measures(g):
    """I, C, Q and the entanglement of formation E, in bits, for correlators g."""
    g = np.asarray(g, dtype=float)
    i = 0.25 * (xlog2(1.0 - 3.0 * g) + 3.0 * xlog2(1.0 + g))
    a = np.abs(g)
    c = 0.5 * (xlog2(1.0 + a) + xlog2(1.0 - a))
    ct = np.clip(-(1.0 + 3.0 * g) / 2.0, 0.0, 1.0)
    p = 0.5 * (1.0 + np.sqrt(1.0 - ct * ct))
    e = np.where(ct == 0.0, 0.0, -(xlog2(p) + xlog2(1.0 - p)))
    return {"I": i, "C": c, "Q": i - c, "E": e}


def discord(g):
    return measures(g)["Q"]


def direct_ok(g):
    """Where a correlator handed straight to a measure is accepted."""
    return np.isfinite(g) & (g >= G_MIN - DIRECT_TOL) & (g <= G_MAX + DIRECT_TOL)


def clamp_measured(g):
    """(clamped correlator, status) for measured correlators."""
    g = np.asarray(g, dtype=float)
    status = np.full(g.shape, OK)
    low = (g < G_MIN) & (g >= G_MIN - MEASURED_TOL)
    high = (g > G_MAX) & (g <= G_MAX + MEASURED_TOL)
    status[low | high] = CLAMPED
    status[(g < G_MIN - MEASURED_TOL) | (g > G_MAX + MEASURED_TOL) | ~np.isfinite(g)] = REJECTED
    out = np.where(low, G_MIN, np.where(high, G_MAX, g))
    return out, status


def secant_sigma(center, upper, lower, up_ok, lo_ok):
    """Symmetric secant, one-sided where an endpoint left the domain.

    Returns (sigma, usable); a row with both endpoints outside is unusable.
    """
    both = 0.5 * np.abs(np.where(up_ok, upper, 0.0) - np.where(lo_ok, lower, 0.0))
    one_up = np.abs(np.where(up_ok, upper, 0.0) - center)
    one_lo = np.abs(np.where(lo_ok, lower, 0.0) - center)
    sigma = np.where(up_ok & lo_ok, both, np.where(up_ok, one_up, one_lo))
    return sigma, up_ok | lo_ok


def discord_sigma(g, sigma_g):
    """Propagated discord sigma for correlators g with sigmas sigma_g (0 where exact)."""
    up, lo = g + sigma_g, g - sigma_g
    up_ok, lo_ok = direct_ok(up), direct_ok(lo)
    q_up = discord(np.clip(np.where(up_ok, up, 0.0), G_MIN, G_MAX))
    q_lo = discord(np.clip(np.where(lo_ok, lo, 0.0), G_MIN, G_MAX))
    sigma, usable = secant_sigma(discord(g), q_up, q_lo, up_ok, lo_ok)
    return np.where(sigma_g > 0.0, sigma, 0.0), usable | (sigma_g == 0.0)


def result_table(t, g, sigma_g):
    """Columns of the program's result records for (already clamped) correlators."""
    m = measures(g)
    sigma_q, usable = discord_sigma(g, sigma_g)
    table = {"T_K": t, "G": g, "sigma_G": sigma_g, "Q": m["Q"], "sigma_Q": sigma_q,
             "C": m["C"], "I": m["I"], "E": m["E"]}
    return table, usable


def chi_to_correlator(chi, t, g_factor):
    """Bleaney-Bowers inversion with the measured-value tolerance.

    Negative susceptibilities are rejected before any correlator is formed.
    """
    raw = 2.0 * t * chi / (CURIE * g_factor**2) - 1.0
    g, status = clamp_measured(raw)
    status = np.where(chi < 0.0, REJECTED, status)
    return g, status


def from_chi_rows(t, chi, sigma_chi, g_factor):
    """Expected from-chi output: (table over accepted rows, status per row)."""
    g, status = chi_to_correlator(chi, t, g_factor)
    g_up, st_up = chi_to_correlator(chi + sigma_chi, t, g_factor)
    g_lo, st_lo = chi_to_correlator(chi - sigma_chi, t, g_factor)
    sigma_g, usable = secant_sigma(g, g_up, g_lo, st_up != REJECTED, st_lo != REJECTED)
    sigma_g = np.where(sigma_chi > 0.0, sigma_g, 0.0)
    status = np.where((sigma_chi > 0.0) & ~usable, REJECTED, status)
    keep = status != REJECTED
    table, usable_q = result_table(t[keep], g[keep], sigma_g[keep])
    if not usable_q.all():
        raise AssertionError("generated susceptibility rows reach an unusable discord sigma")
    return table, status


def from_correlator_rows(t, g_meas, sigma_g):
    """Expected from-neutron output for a correlator series."""
    g, status = clamp_measured(g_meas)
    keep = status != REJECTED
    table, usable = result_table(t[keep], g[keep], sigma_g[keep])
    if not usable.all():
        raise AssertionError("generated correlator rows reach an unusable discord sigma")
    return table, status


def bleaney_bowers(j, g_factor, t):
    """Molar susceptibility per mole of dimers (emu/mol)."""
    return CURIE * g_factor**2 * (1.0 + correlator(j, t)) / (2.0 * t)


def fit_bleaney_bowers(t, chi, sigma, j0, g0):
    """Weighted least-squares J and g by damped Gauss-Newton, run to convergence."""
    w = 1.0 / sigma
    p = np.array([j0, g0], dtype=float)

    def resid(q):
        return (bleaney_bowers(q[0], q[1], t) - chi) * w

    r = resid(p)
    cost = r @ r
    lam = 1e-3
    for _ in range(500):
        h = np.maximum(np.abs(p), 1e-3) * 1e-7
        jac = np.column_stack([(resid(p + d) - resid(p - d)) / (2 * d[k])
                               for k, d in enumerate(np.diag(h))])
        a = jac.T @ jac
        step = np.linalg.solve(a + lam * np.diag(np.diag(a)), -jac.T @ r)
        trial = p + step
        r_new = resid(trial)
        c_new = r_new @ r_new
        if c_new <= cost:
            converged = np.all(np.abs(step) <= 1e-14 * np.abs(p)) or cost - c_new <= 1e-16 * cost
            p, r, cost = trial, r_new, c_new
            lam = max(lam / 10.0, 1e-12)
            if converged:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return float(p[0]), float(p[1]), float(np.sqrt(cost))


def fit_tolerance(t, sigma, j, g_factor, norm):
    """How far another minimizer's (J, g, chi_model rows) may lie from the optimum (j, g_factor).

    The weighted cost is a sum of n squares, so it is known only to within
    n * u * cost (u the unit roundoff): no float64 minimizer can rank two
    points whose costs differ by less.  Those points form the ellipsoid
    d^T H d <= n u cost with H = J_w^T J_w, the weighted Jacobian's normal
    matrix, and a linear function a^T d ranges over it by at most
    sqrt(n u cost a^T H^-1 a).  Returns those half-widths for J, g and each
    row of chi_model.
    """
    e = np.exp(np.clip(-2.0 * j / t, -700.0, 700.0))
    d_j = CURIE * g_factor**2 / (2.0 * t) * 8.0 * e / (t * (3.0 + e) ** 2)
    d_g = 2.0 * bleaney_bowers(j, g_factor, t) / g_factor
    jac = np.column_stack([d_j, d_g])
    weighted = jac / sigma[:, None]
    h_inv = np.linalg.inv(weighted.T @ weighted)
    slack = t.size * 2.0**-53 * norm**2
    rows = np.sqrt(slack * np.einsum("ij,jk,ik->i", jac, h_inv, jac))
    tol_j, tol_g = np.sqrt(slack * np.diag(h_inv))
    return float(tol_j), float(tol_g), rows


# ---------------------------------------------------------------------------
# mpmath: single points


def mp_xlog2(x):
    return mp.mpf(0) if x <= 0 else x * mp.log(x, 2)


def mp_correlator(j, t):
    return -1 + 4 / (3 + mp.exp(-2 * mp.mpf(j) / mp.mpf(t)))


def mp_measures(g):
    """(I, C, Q, concurrence, E) in bits."""
    g = mp.mpf(g)
    i = (mp_xlog2(1 - 3 * g) + 3 * mp_xlog2(1 + g)) / 4
    a = abs(g)
    c = (mp_xlog2(1 + a) + mp_xlog2(1 - a)) / 2
    ct = max(mp.mpf(0), -(1 + 3 * g) / 2)
    if ct == 0:
        e = mp.mpf(0)
    else:
        p = (1 + mp.sqrt(1 - ct * ct)) / 2
        e = -(mp_xlog2(p) + mp_xlog2(1 - p))
    return i, c, i - c, ct, e


def mp_specific_heat(g):
    """c_m/R = (3/16)(1+G)(1-3G) ln^2[(1+G)/(1-3G)]."""
    g = mp.mpf(g)
    p, q = 1 + g, 1 - 3 * g
    return mp.mpf(3) / 16 * p * q * mp.log(p / q) ** 2


def mp_solve(f, lo, hi):
    """Root of f on [lo, hi] by bisection to the working precision."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    f_lo = f(lo)
    if f_lo * f(hi) > 0:
        raise ValueError("reference bracket has no sign change")
    for _ in range(140):
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_schottky_peak(antiferro):
    """(G at the c_m maximum, c_m/R there): root of (1+3G) ln[(1+G)/(1-3G)] = 4."""
    def f(g):
        return (1 + 3 * g) * mp.log((1 + g) / (1 - 3 * g)) - 4

    g = mp_solve(f, -0.99, -0.5) if antiferro else mp_solve(f, 0.1, mp.mpf(1) / 3 - mp.mpf(10) ** -30)
    return g, mp_specific_heat(g)


def mp_invert_specific_heat(j, cm, side):
    g_peak, _ = mp_schottky_peak(j < 0)
    if j < 0:
        lo, hi = (g_peak, 0) if side == "hot" else (-1 + mp.mpf(10) ** -35, g_peak)
    else:
        lo, hi = (mp.mpf(10) ** -35, g_peak) if side == "hot" else (g_peak, mp.mpf(1) / 3)
    return mp_solve(lambda g: mp_specific_heat(g) - cm, lo, hi)


def mp_temperature(j, g):
    return -2 * mp.mpf(j) / mp.log(4 / (1 + mp.mpf(g)) - 3)


def mp_crossings(j):
    """(T of the Q = E crossing, T of the C = E crossing), antiferro only."""
    def q_minus_e(t):
        _, _, q, _, e = mp_measures(mp_correlator(j, t))
        return q - e

    def c_minus_e(t):
        _, c, _, _, e = mp_measures(mp_correlator(j, t))
        return c - e

    a = abs(j)
    return mp_solve(q_minus_e, 0.2 * a, 1.0 * a), mp_solve(c_minus_e, 0.2 * a, 1.2 * a)


def fmt(x, precision=6):
    """The program's number format: %g at the printed precision."""
    return f"%.{precision}g" % x


def within(printed, ref, precision=6, rtol=1e-9, atol=1e-15):
    """True where a printed value is ref rounded to `precision` significant digits.

    A correctly rounded value lies within half a unit in its last place; rtol
    absorbs last-bit differences between two double evaluations of the same
    formula, atol exact zeros.
    """
    p = np.asarray(printed, dtype=float)
    r = np.asarray(ref, dtype=float)
    mag = np.maximum(np.abs(p), np.abs(r))
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    half_unit = np.where(mag > 0.0, 0.5 * 10.0 ** (exponent - (precision - 1)), 0.0)
    return np.isfinite(p) & (np.abs(p - r) <= half_unit + rtol * np.abs(r) + atol)
