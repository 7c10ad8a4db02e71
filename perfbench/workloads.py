"""The four workloads: seeded inputs, the operations they run, and what each must print.

An operation is one ``python -m dimer_discord`` invocation (CLI workloads)
or one pass over the scalar calls (``library-scalar``).  Expected outputs
come from ``reference``, never from the package.
"""

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import check
import gen
import reference as ref

SWEEP_POINTS = 100_000
FIGURE_POINTS = 20_000
SCALAR_K = 40
SCALAR_RTOL = 5e-7  # six significant digits, the CLI's default printed precision


@dataclass
class Op:
    key: str
    argv: list
    rows: int
    check: Callable
    status: np.ndarray | None = None
    stderr_has: tuple = ()


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    shares: dict = field(default_factory=dict)
    calls: dict | None = None  # library-scalar: arguments of one pass
    expected: list | None = None  # library-scalar: outputs of one pass


def _table_op(key, argv, table, channel, fmt="csv", preset=None, status=None, stderr_has=()):
    """An operation printing result records; its rows are its input rows when a status says them."""
    rows = int(table["T_K"].size if status is None else status.size)
    return Op(key, argv, rows,
              functools.partial(check.result_table, fmt=fmt, expected=table,
                                channel=channel, preset=preset),
              status, stderr_has)


def _theory_table(j, t):
    g = ref.correlator(j, t)
    table, _ = ref.result_table(t, g, np.zeros_like(t))
    return table


@functools.lru_cache(maxsize=None)
def _universal():
    """Preset-independent landmark values in reduced units (|J| = 1)."""
    tau_qe, tau_ce = ref.mp_crossings(-1.0)
    at_qe = ref.mp_measures(ref.mp_correlator(-1.0, tau_qe))
    at_ce = ref.mp_measures(ref.mp_correlator(-1.0, tau_ce))
    death = ref.mp_measures(-ref.mp.mpf(1) / 3)
    ground = ref.mp_measures(ref.mp.mpf(1) / 3)
    g_af, cm_af = ref.mp_schottky_peak(True)
    g_f, cm_f = ref.mp_schottky_peak(False)
    w = ref.mp.lambertw(3 / ref.mp.e)
    return {k: float(v) for k, v in {
        "tau_qe": tau_qe, "q_qe": at_qe[2], "tau_ce": tau_ce, "c_ce": at_ce[1], "q_ce": at_ce[2],
        "i_death": death[0], "q_death": death[2], "q_ground": ground[2], "c_ground": ground[1],
        "g_peak_af": g_af, "cm_peak_af": cm_af, "g_peak_f": g_f, "cm_peak_f": cm_f,
        "w": ref.mp.re(w), "death_scale": 2 / ref.mp.log(3),
    }.items()}


def landmarks_expected(j, g):
    u = _universal()
    a = abs(j)
    lines = [("branch", "antiferro" if j < 0 else "ferro"), ("J_over_kB_K", j)]
    if g is not None:
        lines.append(("g_factor", g))
    if j < 0:
        lines += [
            ("entanglement_death_kT_over_absJ", u["death_scale"]),
            ("entanglement_death_T_K", u["death_scale"] * a),
            ("mutual_information_at_death_bits", u["i_death"]),
            ("discord_at_death_bits", u["q_death"]),
            ("QE_crossing_kT_over_absJ", u["tau_qe"]),
            ("QE_crossing_T_K", u["tau_qe"] * a),
            ("QE_crossing_bits", u["q_qe"]),
            ("CE_crossing_kT_over_absJ", u["tau_ce"]),
            ("CE_crossing_T_K", u["tau_ce"] * a),
            ("CE_crossing_bits", u["c_ce"]),
            ("CE_crossing_discord_bits", u["q_ce"]),
        ]
        reduced_peak, cm_peak = -(1 + 3 * u["g_peak_af"]) / 2, u["cm_peak_af"]
    else:
        lines += [
            ("discord_T0_bits", u["q_ground"]),
            ("classical_T0_bits", u["c_ground"]),
            ("discord_to_classical_T0", u["q_ground"] / u["c_ground"]),
        ]
        reduced_peak, cm_peak = (1 + 3 * u["g_peak_f"]) / 2, u["cm_peak_f"]
    lines += [
        ("schottky_peak_kT_over_absJ", reduced_peak),
        ("schottky_peak_T_K", reduced_peak * a),
        ("schottky_peak_cm_over_R", cm_peak),
    ]
    if j < 0 and g is not None:
        w = u["w"]
        chi_max = ref.CURIE * g**2 * w / (3 * a)
        lines += [
            ("chi_peak_kT_over_absJ", 2 / (1 + w)),
            ("chi_peak_T_K", 2 * a / (1 + w)),
            ("chi_peak_emu_per_mol", chi_max),
            ("chi_peak_reduced", w / 3),
        ]
    return lines


def _figure_op(fig_id, n):
    if fig_id == 1:
        tau = np.geomspace(0.01, 5.0, n)
        g = ref.correlator(-1.0, tau)
        m = ref.measures(g)
        cols = [tau, np.abs(g), m["Q"], m["C"], m["E"]]
        title, names = ("antiferro dimer correlations vs reduced temperature",
                        ["kT_over_absJ", "absG", "Q", "C", "E"])
    elif fig_id == 3:
        g = np.linspace(ref.G_MIN, ref.G_MAX, n)
        cols = [g, ref.discord(g)]
        title, names = "discord vs correlator", ["G", "Q"]
    elif fig_id == 5:
        t = np.geomspace(1.0, 500.0, n)
        cols = [t, ref.discord(ref.correlator(-204.0, t)), ref.discord(ref.correlator(-216.0, t))]
        title, names = ("copper acetate discord vs temperature",
                        ["T_K", "Q_copper_acetate_hydrate", "Q_copper_acetate_anhydrous"])
    else:
        t = np.geomspace(1.0, 500.0, n)
        g = ref.correlator(35.4, t)
        m = ref.measures(g)
        cols = [t, g, m["Q"], m["C"], m["E"]]
        title, names = ("ferro complex correlations vs temperature", ["T_K", "G", "Q", "C", "E"])
    argv = ["figure", str(fig_id)] + ([] if n == 400 else ["--n-points", str(n)])
    return Op(" ".join(argv), argv, n,
              functools.partial(check.figure, fig_id=fig_id, title=title, columns=names,
                                expected=cols))


def cli_startup(rng, work):
    w = Workload("cli-startup")
    for name, (j, g) in ref.PRESETS.items():
        argv = ["landmarks", "--preset", name]
        expected = landmarks_expected(j, g)
        w.ops.append(Op(" ".join(argv), argv, len(expected),
                        functools.partial(check.key_values, expected=expected)))
    text, value, sigma = gen.neutron_point(rng)
    t_txt = ref.fmt(rng.uniform(1.0, 50.0), 4)
    table, _ = ref.result_table(np.array([float(t_txt)]), np.array([value]), np.array([sigma]))
    w.ops.append(_table_op("neutron-point", ["from-neutron", f"--G={text}", "--T", t_txt],
                           table, "neutron"))
    j = ref.PRESETS["copper-nitrate-calorimetric"][0]
    for side in ("hot", "cold"):
        t, cm_txt = gen.specific_heat_point(rng, j, side)
        g = float(ref.mp_invert_specific_heat(j, float(cm_txt), side))
        table, _ = ref.result_table(np.array([t]), np.array([g]), np.zeros(1))
        argv = ["from-cm", "--route", "invert", "--T", ref.fmt(t), "--cm-over-R", cm_txt,
                "--preset", "copper-nitrate-calorimetric"]
        w.ops.append(_table_op(f"cm-{side}", argv, table, "calorimetric",
                               stderr_has=(f"on the {side} side",)))
    a_txt, t0_txt = gen.tail_point(rng, j)
    u = -(float(a_txt) / float(t0_txt))
    g, _ = ref.clamp_measured(np.array([-2.0 * u / (3.0 * j)]))
    table, _ = ref.result_table(np.array([float(t0_txt)]), g, np.zeros(1))
    argv = ["from-cm", "--route", "integrate", "--tail-a", a_txt, "--tail-from", t0_txt,
            "--preset", "copper-nitrate-calorimetric"]
    w.ops.append(_table_op("cm-tail", argv, table, "calorimetric"))
    a = abs(j)
    w.ops.append(_table_op("theory-default", ["theory", "--preset", "copper-nitrate-calorimetric"],
                           _theory_table(j, np.geomspace(0.02 * a, 6.0 * a, 400)), "theory"))
    w.ops.append(_figure_op(3, 400))
    n = len(w.ops)
    ferro = 1 + (value > 0)  # the ferro preset's landmarks, and the neutron point if positive
    single_branch = n - 1  # figure 3 spans both branches
    w.shares = {"ops": n, "with_sigma": 1 / n, "hot": 1 / n, "cold": 1 / n,
                "antiferro": (single_branch - ferro) / n, "ferro": ferro / n,
                "clamped": 0.0, "rejected": 0.0}
    return w


def cli_series(rng, work):
    w = Workload("cli-series")
    chi_path, g_path = str(work / "chi.csv"), str(work / "correlator.csv")
    chi = gen.susceptibility_series(rng, chi_path)
    corr = gen.correlator_series(rng, g_path)
    argv = ["from-chi", "--input", chi_path, "--per", "monomer",
            "--g-factor", ref.fmt(chi["g_factor"], 8)]
    w.ops.append(_table_op("from-chi", argv, chi["table"], "magnetometric", status=chi["status"]))
    w.ops.append(_table_op("from-neutron", ["from-neutron", "--input", g_path], corr["table"],
                           "neutron", status=corr["status"]))
    j0, g0 = chi["fit_init"]
    j_fit, g_fit, norm = ref.fit_bleaney_bowers(chi["t"], chi["chi"], chi["sigma"], j0, g0)
    tol_j, tol_g, tol_rows = ref.fit_tolerance(chi["t"], chi["sigma"], j_fit, g_fit, norm)
    expected = {"j": j_fit, "g": g_fit, "residual_norm": norm, "t": chi["t"], "chi": chi["chi"],
                "chi_model": ref.bleaney_bowers(j_fit, g_fit, chi["t"]),
                "tol_j": tol_j, "tol_g": tol_g, "tol_rows": tol_rows}
    argv = ["fit", "--input", chi_path, "--per", "monomer", "--J-over-kB", ref.fmt(j0),
            "--g-factor", ref.fmt(g0)]
    w.ops.append(Op("fit", argv, chi["t"].size,
                    functools.partial(check.fit_report, expected=expected)))
    w.shares = {"susceptibility": chi["shares"], "correlator": corr["shares"]}
    return w


def cli_sweep(rng, work):
    w = Workload("cli-sweep")
    antiferro = [name for name, (j, _) in ref.PRESETS.items() if j < 0]
    for name, fmt in ((antiferro[int(rng.integers(len(antiferro)))], "csv"),
                      ("cu2l-oac-ferro", "json")):
        a = abs(ref.PRESETS[name][0])
        t_min, t_max = ref.fmt(rng.uniform(0.01, 0.05) * a), ref.fmt(rng.uniform(4.0, 8.0) * a)
        t = np.geomspace(float(t_min), float(t_max), SWEEP_POINTS)
        argv = ["theory", "--preset", name, "--t-min", t_min, "--t-max", t_max,
                "--n-points", str(SWEEP_POINTS), "--format", fmt]
        w.ops.append(_table_op(f"theory-{fmt}", argv, _theory_table(ref.PRESETS[name][0], t),
                               "theory", fmt=fmt, preset=name))
    for fig_id in (1, 5, 6):
        w.ops.append(_figure_op(fig_id, FIGURE_POINTS + int(rng.integers(0, 100))))
    rows = [op.rows for op in w.ops]  # theory csv (antiferro), json (ferro), figures 1, 5, 6
    w.shares = {"rows": sum(rows), "antiferro": (rows[0] + rows[2] + rows[3]) / sum(rows),
                "ferro": (rows[1] + rows[4]) / sum(rows), "json": rows[1] / sum(rows)}
    return w


def scalar_expected(calls):
    """The outputs of ``scalar.run_pass`` computed at 40 digits, in the same order."""
    out = []
    for j, t in calls["correlation_set"]:
        out += ref.mp_measures(ref.mp_correlator(j, t))
    for g in calls["measures"]:
        out += ref.mp_measures(g)
    c = ref.mp.mpf(ref.CURIE) * ref.mp.mpf(calls["g_factor"]) ** 2
    for t, chi in calls["chi"]:
        out.append(2 * ref.mp.mpf(t) * chi / c - 1)
    for cm, side in calls["cm"]:
        out.append(ref.mp_invert_specific_heat(calls["j_af"], cm, side))
    for u in calls["u"]:
        out.append(-2 * ref.mp.mpf(u) / (3 * ref.mp.mpf(calls["j_af"])))
    for j, g in calls["t_of_g"]:
        out.append(ref.mp_temperature(j, g))
    for t, g, sigma in calls["result"]:
        i, cl, q, _, e = ref.mp_measures(g)
        q_up, q_lo = ref.mp_measures(g + sigma)[2], ref.mp_measures(g - sigma)[2]
        out += [g, sigma, q, abs(q_up - q_lo) / 2, cl, i, e]
    u = _universal()
    for j in calls["crossing"]:
        out += [u["tau_qe"] * abs(j), u["q_qe"]]
    for j in calls["schottky"]:
        g_peak, cm_peak = (u["g_peak_af"], u["cm_peak_af"]) if j < 0 else (u["g_peak_f"], u["cm_peak_f"])
        out += [j * (1 + 3 * g_peak) / 2, cm_peak]
    for j in calls["chi_max"]:
        out += [2 * abs(j) / (1 + u["w"]), c * u["w"] / (3 * abs(j))]
    return [float(x) for x in out]


def library_scalar(rng, work):
    calls, shares = gen.scalar_inputs(rng, SCALAR_K)
    w = Workload("library-scalar", shares=shares, calls=calls)
    w.expected = scalar_expected(calls)
    w.ops.append(Op("pass", [], shares["points"],
                    lambda stdout: check.values(json.loads(stdout), w.expected, SCALAR_RTOL)))
    return w


BUILDERS = {
    "cli-startup": cli_startup,
    "cli-series": cli_series,
    "cli-sweep": cli_sweep,
    "library-scalar": library_scalar,
}


def build(name, seed, work):
    """The workload's inputs and operations for a seed; files go under ``work``."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, work)
