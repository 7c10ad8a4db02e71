"""Seeded inputs for the benchmark: measurement files and CLI arguments.

Every number the program reads is first formatted as text, and the
expected outputs are computed from the parsed text, so the checker and the
program start from the same doubles.  Fixed shares of each file are planted
out of the model (rows the program must reject by row number) or just past
the physical edge (rows it must clamp).
"""

import json

import numpy as np

import reference as ref

SERIES_ROWS = 10_000
OUT_OF_MODEL_SHARE = 0.015
CLAMP_SHARE = 0.01


def _text(values, digits=10):
    return [f"%.{digits}g" % v for v in values]


def _parsed(texts):
    return np.array([float(s) for s in texts])


def _log_grid(rng, lo, hi, n):
    """Strictly increasing temperatures on a jittered log grid."""
    steps = np.arange(n) + rng.uniform(-0.4, 0.4, n)
    return lo * (hi / lo) ** (steps / n)


def _planted(rng, n, shares):
    """Disjoint random row sets, one per share."""
    order = rng.permutation(n)
    out, start = [], 0
    for share in shares:
        k = int(round(share * n))
        out.append(np.sort(order[start:start + k]))
        start += k
    return out


def _shares(status, g_out):
    """Input shares of a series; the branch is the sign of each accepted row's correlator."""
    n = status.size
    return {
        "rows": int(n),
        "with_sigma": 1.0,
        "clamped": float(np.mean(status == ref.CLAMPED)),
        "rejected": float(np.mean(status == ref.REJECTED)),
        "antiferro": float(np.sum(g_out < 0.0) / n),
        "ferro": float(np.sum(g_out > 0.0) / n),
    }


def susceptibility_series(rng, path):
    """chi(T) per mole of Cu (monomer) for a copper-nitrate-like dimer, with sigma_chi.

    Returns the expected from-chi output, the row status, the arguments the
    commands use, and the input shares.
    """
    n = SERIES_ROWS
    j_true = -2.56 * (1.0 + 0.05 * rng.uniform(-1, 1))
    g_true = 2.11 * (1.0 + 0.01 * rng.uniform(-1, 1))
    t = _parsed(_text(_log_grid(rng, 0.5 * abs(j_true), 10.0 * abs(j_true), n)))
    g_model = ref.correlator(j_true, t)
    bad_high, bad_negative, clamp = _planted(
        rng, n, [OUT_OF_MODEL_SHARE * 2 / 3, OUT_OF_MODEL_SHARE / 3, CLAMP_SHARE])
    g_model[bad_high] = rng.uniform(0.36, 0.6, bad_high.size)
    g_model[clamp] = rng.uniform(ref.G_MAX + 0.001, ref.G_MAX + 0.009, clamp.size)
    chi_dimer = ref.CURIE * g_true**2 * (1.0 + g_model) / (2.0 * t)
    chi_dimer[bad_negative] = -rng.uniform(0.01, 0.5, bad_negative.size) * chi_dimer[bad_negative]
    sigma_rel = 0.005
    noisy = chi_dimer * (1.0 + sigma_rel * rng.standard_normal(n))
    # no noise on planted rows: clamp rows stay inside the tolerance band, and
    # out-of-model rows stay out of it (noise could carry G = 0.36 back below 1/3 + 0.01)
    planted = np.concatenate([bad_high, clamp])
    noisy[planted] = chi_dimer[planted]
    chi_txt = _text(noisy / 2.0)
    sig_txt = _text(np.abs(noisy / 2.0) * sigma_rel)
    t_txt = _text(t)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# seeded susceptibility series, per mole of Cu\n")
        fh.write("T_K,chi_emu_per_mol,sigma_chi\n")
        fh.writelines(f"{a},{b},{c}\n" for a, b, c in zip(t_txt, chi_txt, sig_txt))
    chi = _parsed(chi_txt) * 2.0  # --per monomer doubles values and sigmas
    sigma = _parsed(sig_txt) * 2.0
    g_arg = float(ref.fmt(g_true, 8))
    table, status = ref.from_chi_rows(t, chi, sigma, g_arg)
    expected_rejects = set(np.flatnonzero(status == ref.REJECTED).tolist())
    planted_rejects = set(bad_high.tolist()) | set(bad_negative.tolist())
    if expected_rejects != planted_rejects:
        raise AssertionError("susceptibility generator: rejected rows differ from planted rows")
    fit_init = (float(ref.fmt(j_true * (1.0 + 0.1 * rng.uniform(-1, 1)), 6)),
                float(ref.fmt(g_true * (1.0 + 0.03 * rng.uniform(-1, 1)), 6)))
    return {
        "t": t, "chi": chi, "sigma": sigma, "g_factor": g_arg, "fit_init": fit_init,
        "table": table, "status": status,
        "shares": _shares(status, table["G"]),
    }


def correlator_series(rng, path):
    """Measured G(T) with sigma_G, mixing an antiferro and a ferro sample."""
    n = SERIES_ROWS
    j_abs = 10.0 * (1.0 + 0.2 * rng.uniform(-1, 1))
    t = _parsed(_text(_log_grid(rng, 1.0 * j_abs, 8.0 * j_abs, n)))
    antiferro = rng.uniform(size=n) < 0.7
    g = np.where(antiferro, ref.correlator(-j_abs, t), ref.correlator(j_abs, t))
    sigma = rng.uniform(0.002, 0.01, n)
    g = g + sigma * rng.standard_normal(n)
    bad, clamp = _planted(rng, n, [OUT_OF_MODEL_SHARE, CLAMP_SHARE])
    low = rng.uniform(size=bad.size) < 0.5
    g[bad] = np.where(low, rng.uniform(-1.3, -1.02, bad.size), rng.uniform(0.35, 0.6, bad.size))
    low = rng.uniform(size=clamp.size) < 0.5
    g[clamp] = np.where(low, rng.uniform(-1.009, -1.001, clamp.size),
                        rng.uniform(ref.G_MAX + 0.001, ref.G_MAX + 0.009, clamp.size))
    t_txt, g_txt, s_txt = _text(t), _text(g, 8), _text(sigma, 4)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# seeded correlator series\n")
        fh.write("T_K,G,sigma_G\n")
        fh.writelines(f"{a},{b},{c}\n" for a, b, c in zip(t_txt, g_txt, s_txt))
    g, sigma = _parsed(g_txt), _parsed(s_txt)
    table, status = ref.from_correlator_rows(t, g, sigma)
    if set(np.flatnonzero(status == ref.REJECTED).tolist()) != set(bad.tolist()):
        raise AssertionError("correlator generator: rejected rows differ from planted rows")
    return {"t": t, "table": table, "status": status,
            "shares": _shares(status, table["G"])}


def neutron_point(rng):
    """One --G="v(d)" argument: (text, value, sigma)."""
    ferro = rng.uniform() < 0.3
    value = rng.uniform(0.05, 0.3) if ferro else rng.uniform(-0.95, -0.05)
    digit = int(rng.integers(1, 10))
    text = "%.3f" % value
    mantissa = float(text)
    return f"{text}({digit})", mantissa, digit * 10.0 ** -3


def specific_heat_point(rng, j, side):
    """(T, c_m/R text) on the given side of the Schottky peak of coupling j."""
    reduced = rng.uniform(0.9, 5.0) if side == "hot" else rng.uniform(0.25, 0.6)
    t = float(ref.fmt(reduced * abs(j), 6))
    g = ref.mp_correlator(j, t)
    return t, ref.fmt(float(ref.mp_specific_heat(g)), 8)


def tail_point(rng, j):
    """(tail-a text, tail-from text) whose tail integral gives a correlator in (-0.3, -0.05)."""
    t0 = float(ref.fmt(rng.uniform(3.0, 10.0) * abs(j), 6))
    g = rng.uniform(-0.3, -0.05)
    return ref.fmt(1.5 * j * t0 * g, 6), ref.fmt(t0, 6)


def scalar_inputs(rng, k):
    """Arguments for one pass of library calls: k of most kinds, a tenth as many crossings.

    Returns the argument lists, keyed by the call they feed, and the shares.
    """
    j_af = float(ref.fmt(-rng.uniform(2.0, 250.0), 6))
    j_f = float(ref.fmt(rng.uniform(2.0, 60.0), 6))
    g_factor = float(ref.fmt(rng.uniform(1.95, 2.25), 6))
    a = abs(j_af)
    near_edge = 10.0 ** rng.uniform(-12, -3, k)
    near_zero = 10.0 ** rng.uniform(-4, -2, k) * np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    g_af = rng.uniform(-0.95, -0.05, k)
    g_f = rng.uniform(0.03, 0.3, k)
    ferro = rng.uniform(size=k) < 0.5
    chi_t = rng.uniform(0.3, 8.0, k) * a
    cm_t = np.concatenate([rng.uniform(0.9, 5.0, k), rng.uniform(0.2, 0.6, k)]) * a
    sides = ["hot"] * k + ["cold"] * k
    cm = [float(ref.mp_specific_heat(ref.mp_correlator(j_af, t))) for t in cm_t]
    peak_j = rng.uniform(1.0, 300.0, k) * np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    calls = {
        "j_af": j_af, "j_f": j_f, "g_factor": g_factor,
        "correlation_set": [[j_af, t] for t in rng.uniform(0.05, 10.0, k) * a]
        + [[j_f, t] for t in rng.uniform(0.05, 10.0, k) * j_f],
        "measures": np.concatenate([-1.0 + near_edge, near_zero, ref.G_MAX - near_edge]).tolist(),
        "chi": [[t, c] for t, c in zip(chi_t, ref.bleaney_bowers(j_af, g_factor, chi_t))],
        "cm": [[c, s] for c, s in zip(cm, sides)],
        "u": (-1.5 * j_af * g_af).tolist(),
        "t_of_g": [[j_f, g] if f else [j_af, g2] for f, g, g2 in zip(ferro, g_f, g_af)],
        "result": [[t, g, s] for t, g, s in zip(rng.uniform(0.1, 300.0, k), g_af,
                                                rng.uniform(0.001, 0.04, k))],
        "crossing": (-rng.uniform(1.0, 300.0, max(1, k // 10))).tolist(),
        "schottky": peak_j.tolist(),
        "chi_max": (-np.abs(peak_j)).tolist(),
    }
    # calls whose coupling sets a branch: correlation_set, chi, cm, u, t_of_g
    n_ferro = k + int(np.sum(ferro))
    n_branch = 7 * k
    shares = {
        "points": sum(len(v) for v in calls.values() if isinstance(v, list)),
        "antiferro": (n_branch - n_ferro) / n_branch,
        "ferro": n_ferro / n_branch,
        "hot": 0.5,
        "cold": 0.5,
    }
    # plain floats, exactly as the library worker reads them back from JSON
    return json.loads(json.dumps(calls)), shares
