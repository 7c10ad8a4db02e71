"""Golden stdout and stderr: one small invocation per subcommand and format, run in process.

Each case runs ``cli.main`` on fixed arguments and small fixture files and
compares stdout byte for byte with ``golden_stdout.json``, and stderr with
``golden_stderr.json``.  On stderr every warning is shown, in the order it
was raised, as ``Category: text`` (without the ``path:line:`` prefix of
Python's own format, which names source lines); the CLI does so itself, and
a few cases check that in a real process too.  The ``-p17`` cases
print at ``DIMER_DISCORD_PRECISION=17``, so that a change in the last bit of
any computed column shows.  The expected
bytes change only with a deliberate change to what the CLI prints; after
one, regenerate both files with

    PYTHONPATH=src python tests/test_golden_stdout.py
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dimer_discord
from dimer_discord import cli, dataio, thermo
from dimer_discord.dataio import results_from_correlators, write_results
from dimer_discord.dimer_core import CODATA, DimerParameters, discord
from dimer_discord.errors import DimerDiscordError
from dimer_discord.numerics import ValueWithUncertainty, propagate_uncertainty

GOLDEN = Path(__file__).with_name("golden_stdout.json")
GOLDEN_STDERR = Path(__file__).with_name("golden_stderr.json")
LAYERS = ("cli", "dataio", "dimer_core", "numerics", "thermo")

# copper nitrate (J/k_B = -2.56 K, g = 2.11) at T >= 0.5 |J|, a few tenths
# of a percent off the model, per mole of dimers
CHI8 = """\
T_K,chi_emu_per_mol,sigma_chi
1.5,0.06691,0.00027
2,0.10457,0.00042
2.5,0.12451,0.0005
3,0.13062,0.00052
4,0.12675,0.00051
5,0.1154,0.00046
7,0.094015,0.00038
10,0.071548,0.00029
"""

# one row clamped onto -1 and one refused, between good ones
CORRELATOR = """\
# neutron correlators
T_K,G,sigma_G
1.0,-0.93,0.02
2.0,-1.004,0.01
3.0,-1.5,0.01
4.0,-0.41,0
6.0,-0.22,0.03
"""

SPECIFIC_HEAT = """\
T_K,cm_over_R
0.5,0.02
1.0,0.31
2.0,0.62
3.0,0.45
4.0,0.30
"""

# rows whose discord sigma goes one-sided on the lower side (1, 2) and on
# the upper side (5, 6), clamped rows (2, 6), a refused row (3) and a row
# whose discord is undefined on both sides of its sigma (4)
CORRELATOR_EDGES = """\
T_K,G,sigma_G
1,-0.95,0.1
2,-1.004,0.01
3,-1.5,0.01
4,-0.4,2
5,0.3,0.1
6,0.335,0.001
7,-0.2,0.05
8,0.1,0
"""

# with g = 2.11: at 1 K chi - sigma < 0 (one-sided chi, then one-sided
# discord below); at 3 K chi is undefined on both sides; at 4 K both go
# one-sided above; 6 K is clamped onto 1/3; 7 K is refused; at 8 K the
# upper chi endpoint is clamped and the discord goes one-sided above
CHI_EDGES = """\
T_K,chi_emu_per_mol,sigma_chi
1,0.0042,0.006
3,0.139,0.5
4,0.2714,0.02
5,0.1336,0.001
6,0.18595,0
7,0.18,0.001
8,0.138834,0.00104
"""

FIXTURES = {
    "chi": CHI8,
    "correlator": CORRELATOR,
    "cm": SPECIFIC_HEAT,
    "correlator_edges": CORRELATOR_EDGES,
    "chi_edges": CHI_EDGES,
}

CASES = {
    "theory-csv": ["theory", "--preset", "copper-nitrate-magnetometric", "--n-points", "5"],
    "theory-json": ["theory", "--preset", "cu2l-oac-ferro", "--t-min", "1", "--t-max", "300",
                    "--n-points", "5", "--grid", "linear", "--format", "json"],
    "landmarks-antiferro-g": ["landmarks", "--preset", "copper-acetate-hydrate"],
    "landmarks-antiferro-tensor": ["landmarks", "--2J-over-kB", "-5.12",
                                   "--g-tensor", "2.0", "2.0", "2.4"],
    "landmarks-antiferro-no-g": ["landmarks", "--preset", "copper-nitrate-calorimetric"],
    "landmarks-ferro": ["landmarks", "--preset", "cu2l-oac-ferro"],
    "neutron-point-csv": ["from-neutron", "--G=-0.54(9)", "--T", "4"],
    "neutron-point-json": ["from-neutron", "--G=-0.54(9)", "--T", "4", "--format", "json"],
    "neutron-series-csv": ["from-neutron", "--input", "{correlator}"],
    "neutron-series-json": ["from-neutron", "--input", "{correlator}", "--format", "json"],
    "neutron-edges-csv": ["from-neutron", "--input", "{correlator_edges}"],
    "neutron-edges-json": ["from-neutron", "--input", "{correlator_edges}", "--format", "json"],
    "chi-edges-csv": ["from-chi", "--input", "{chi_edges}", "--g-factor", "2.11"],
    "chi-edges-json": ["from-chi", "--input", "{chi_edges}", "--g-factor", "2.11",
                       "--format", "json"],
    "chi-csv": ["from-chi", "--input", "{chi}", "--preset", "copper-nitrate-magnetometric"],
    "chi-monomer-json": ["from-chi", "--input", "{chi}", "--per", "monomer",
                         "--g-factor", "2.11", "--format", "json"],
    "cm-invert-hot": ["from-cm", "--route", "invert", "--T", "4", "--cm-over-R", "0.4125",
                      "--preset", "copper-nitrate-calorimetric"],
    "cm-invert-cold": ["from-cm", "--route", "invert", "--T", "1", "--cm-over-R", "0.2",
                       "--preset", "copper-nitrate-calorimetric", "--format", "json"],
    "cm-integrate": ["from-cm", "--route", "integrate", "--input", "{cm}",
                     "--tail-a", "6.6", "--tail-from", "4",
                     "--preset", "copper-nitrate-calorimetric"],
    "cm-integrate-tail": ["from-cm", "--route", "integrate", "--tail-a", "6.6",
                          "--tail-from", "4", "--preset", "copper-nitrate-calorimetric",
                          "--format", "json"],
    "fit-csv": ["fit", "--input", "{chi}", "--J-over-kB", "-2", "--g-factor", "2"],
    "fit-json": ["fit", "--input", "{chi}", "--J-over-kB", "-2", "--g-factor", "2",
                 "--format", "json"],
    **{
        f"figure-{fig}-{fmt}": ["figure", str(fig), "--n-points", "4", "--format", fmt]
        for fig in range(1, 7)
        for fmt in ("csv", "json")
    },
    # both cold grids reach the T -> 0 limit of G(T) (|2J/T| > 700)
    "theory-csv-p17": ["theory", "--preset", "copper-nitrate-magnetometric",
                       "--t-min", "0.001", "--t-max", "1000", "--n-points", "2000"],
    "theory-json-p17": ["theory", "--preset", "cu2l-oac-ferro", "--t-min", "0.01",
                        "--t-max", "1e5", "--n-points", "2000", "--format", "json"],
    **{
        f"figure-{fig}-{fmt}-p17": ["figure", str(fig), "--n-points", "500", "--format", fmt]
        for fig in range(1, 7)
        for fmt in ("csv", "json")
    },
    # the Schottky channel of both couplings to the last bit: each flank far from the peak
    # and above 0.99 of it (the quadratic start), and a cold flank at c_m/R = 1e-200
    **{
        f"cm-invert-{branch}-{flank}-p17": [
            "from-cm", "--route", "invert", "--T", t, "--cm-over-R", cm, "--preset", preset,
            "--format", fmt,
        ]
        for branch, preset, heights in (
            ("antiferro", "copper-nitrate-calorimetric", (
                ("hot-far", "4", "0.4125", "csv"), ("hot-near", "2", "1.02", "json"),
                ("cold-far", "1", "0.2", "json"), ("cold-near", "1.5", "1.02", "csv"),
                ("cold-tiny", "0.01", "1e-200", "csv"),
            )),
            ("ferro", "cu2l-oac-ferro", (
                ("hot-far", "100", "0.05", "json"), ("hot-near", "40", "0.166", "csv"),
                ("cold-far", "10", "0.05", "csv"), ("cold-near", "30", "0.166", "json"),
                ("cold-tiny", "0.1", "1e-200", "json"),
            )),
        )
        for flank, t, cm, fmt in heights
    },
    "landmarks-antiferro-p17": ["landmarks", "--preset", "copper-nitrate-magnetometric"],
    "landmarks-ferro-p17": ["landmarks", "--preset", "cu2l-oac-ferro"],
}

CASE_ENV = {case: {"DIMER_DISCORD_PRECISION": "17"} for case in CASES if case.endswith("-p17")}


def _argv(case: str, workdir: Path) -> list[str]:
    paths = {name: workdir / f"{name}.csv" for name in FIXTURES}
    for name, path in paths.items():
        path.write_text(FIXTURES[name], encoding="utf-8")
    return [a.format_map(paths) for a in CASES[case]]


@contextlib.contextmanager
def _environment(overrides: dict[str, str]):
    saved = {name: os.environ.get(name) for name in (*overrides, "DIMER_DISCORD_PRECISION")}
    os.environ.pop("DIMER_DISCORD_PRECISION", None)
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def _run(case: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, every warning shown in order."""
    return _shown(cli.main, _argv(case, workdir), env=CASE_ENV.get(case, {}))


def _shown(fn, *args, env=None) -> tuple[object, str, str]:
    """``fn(*args)``, its stdout and its stderr, every warning shown in order, and every
    result table the CLI writes checked by :func:`checked_results_text`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(_environment(env or {}))
        stack.enter_context(mock.patch.object(dataio, "_results_text", checked_results_text))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


_CHECK_TABLE, _RESULTS_TEXT = dataio._check_table, dataio._results_text


def _cells(table) -> list[list[tuple[type, object]]]:
    """Each column's cells by type and value, a float by its bits (its hex)."""
    return [[(type(x), x.hex() if type(x) is float else x)
             for x in (column.tolist() if isinstance(column, np.ndarray) else column)]
            for column in table]


def checked_results_text(table, *args) -> str:
    """``dataio._results_text`` of a table the CLI built, which it writes unchecked: the
    table must pass the check ``write_results`` makes of a table it is handed, and come
    back from it cell for cell, the same floats, None cells and channels.  A failure is an
    AssertionError, which the CLI does not turn into an exit code as it does a refusal."""
    try:
        checked = _CHECK_TABLE(table)
    except DimerDiscordError as exc:
        raise AssertionError(f"write_results refuses a table the CLI built: {exc}") from None
    if _cells(checked) != _cells(table):
        raise AssertionError("write_results' check changed a cell of a table the CLI built")
    return _RESULTS_TEXT(table, *args)


def assert_same_text(got: str, expected: str) -> None:
    """``got == expected``; a mismatch names its first differing line and the two lines,
    where pytest's own diff of two large texts runs for minutes."""
    if got != expected:
        a, b = got.split("\n"), expected.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise AssertionError(f"texts differ first at line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_stderr():
    return json.loads(GOLDEN_STDERR.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, golden, tmp_path):
    code, out, _ = _run(case, tmp_path)
    assert code == 0
    assert out == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stderr_matches_golden(case, golden_stderr, tmp_path):
    _, _, err = _run(case, tmp_path)
    assert err == golden_stderr[case]


RESULT_COMMANDS = ("theory", "from-neutron", "from-chi", "from-cm")  # each writes a ResultTable


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] in RESULT_COMMANDS))
def test_the_cli_reads_no_result_table_it_built_again(case, golden, tmp_path, monkeypatch):
    # its builders read every input, so the CLI writes their tables unchecked; a table
    # handed to write_results is checked once
    calls = []
    monkeypatch.setattr(dataio, "_check_table", lambda t: calls.append(1) or _CHECK_TABLE(t))
    code, out, _ = _run(case, tmp_path)
    assert (code, calls) == (0, [])
    assert_same_text(out, golden[case])
    write_results(results_from_correlators([2.0], [-0.5], "theory"))
    assert calls == [1]


@pytest.mark.parametrize(
    "case", ["chi-edges-csv", "chi-edges-json", "neutron-edges-csv", "neutron-edges-json"]
)
def test_a_real_process_prints_the_golden_stderr(case, golden, golden_stderr, tmp_path):
    # under Python's own warning filter a repeated remark would print once,
    # with a path:line: prefix; the CLI itself shows each one, in row order
    env = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}
    proc = subprocess.run([sys.executable, "-m", "dimer_discord", *_argv(case, tmp_path)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden[case], golden_stderr[case])


# the edge fixtures, and --G points clamped, one-sided both ways, refused and undefined
ONE_PASS_ARGV = [
    *(CASES[case] for case in ("neutron-edges-csv", "neutron-edges-json", "chi-edges-csv",
                               "chi-edges-json", "neutron-series-csv", "chi-monomer-json")),
    *(["from-neutron", f"--G={g}", "--T", "4"] for g in (
        "-1.004(10)", "0.335(1)", "-0.95(10)", "0.3(1)", "-1.5", "-0.4(20)", "-0.54(9)")),
    ["from-neutron", "--G=-1.004(10)"],
]
SCALAR_INVERSIONS = (
    thermo.correlator_from_susceptibility, thermo.clamp_measured_correlator, propagate_uncertainty
)


@pytest.mark.parametrize("argv", ONE_PASS_ARGV, ids=" ".join)
def test_series_and_points_take_one_pass(argv, monkeypatch, tmp_path):
    # each row is computed once, by the column pass, and its messages are
    # rendered from its status: no public scalar inversion runs again
    paths = {name: tmp_path / f"{name}.csv" for name in FIXTURES}
    for name, path in paths.items():
        path.write_text(FIXTURES[name], encoding="utf-8")
    argv = [a.format_map(paths) for a in argv]
    expected = _shown(cli.main, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a public scalar inversion ran")

    for module in (dimer_discord, *(getattr(dimer_discord, m) for m in LAYERS)):
        for name, value in list(vars(module).items()):
            if any(value is f for f in SCALAR_INVERSIONS):
                monkeypatch.setattr(module, name, refuse)
    assert _shown(cli.main, argv) == expected


# Equivalence of the column path with the per-row path it replaced.  A row is
# (T, G, sigma_G); the susceptibility series holds the chi that inverts to G
# and its sigma, so that both channels see clamped rows (G within 0.01 of an
# end), refused ones, sigma = 0, one-sided sigmas on both sides and sigmas
# undefined on both sides (sigma_G above ~2/3).
CHI_G_FACTOR = 2.11
CHI_SCALE = CODATA.curie_prefactor * CHI_G_FACTOR**2 / 2.0  # chi * T per 1 + G
CORRELATORS = st.one_of(
    st.floats(-1.0, 1.0 / 3.0),
    st.floats(-1.012, -0.998),
    st.floats(0.331, 0.346),
    st.floats(-1.6, 0.6),
    st.sampled_from([-1.0, 1.0 / 3.0, 0.0]),
)
SIGMAS = st.one_of(st.just(0.0), st.floats(1e-4, 0.05), st.floats(0.3, 2.5))
ROWS = st.lists(
    st.tuples(st.floats(0.5, 20.0), CORRELATORS, SIGMAS),
    min_size=1,
    max_size=12,
    unique_by=lambda row: row[0],
)
EDGE_ROWS = [  # CORRELATOR_EDGES, then sigma_G ending just inside and outside the
    # 1e-9 that validate_correlator forgives beyond each end
    (1.0, -0.95, 0.1), (2.0, -1.004, 0.01), (3.0, -1.5, 0.01), (4.0, -0.4, 2.0),
    (5.0, 0.3, 0.1), (6.0, 0.335, 0.001), (7.0, -0.2, 0.05), (8.0, 0.1, 0.0),
    (9.0, -0.99, 0.0100000005), (10.0, -0.99, 0.0100000015),
    (11.0, 0.32, 0.0133333338), (12.0, 0.32, 0.0133333348),
]
# per channel: the command and file header, the file's (value, sigma) of a
# row, and the channel's public scalar inversion
CHANNELS = {
    "neutron": (
        ["from-neutron"],
        "T_K,G,sigma_G",
        lambda t, g, s: (g, s),
        lambda t, g: thermo.clamp_measured_correlator(g, "neutron point"),
    ),
    "magnetometric": (
        ["from-chi", "--g-factor", str(CHI_G_FACTOR)],
        "T_K,chi_emu_per_mol,sigma_chi",
        lambda t, g, s: ((1.0 + g) * CHI_SCALE / t, s * CHI_SCALE / t),
        lambda t, chi: thermo.correlator_from_susceptibility(
            DimerParameters(-1.0, CHI_G_FACTOR), chi, t
        ),
    ),
}


def _per_row(rows: list[tuple[float, float, float]], channel: str):
    """The per-row path on (T, value, sigma) rows: the channel's public scalar
    inversion, propagate_uncertainty for sigma_G (susceptibility) and sigma_Q.
    Returns its exit code, its 17-digit stdout, the stderr line of each row
    that fails, and the set of kept rows (1-based) on which it warned."""
    check = CHANNELS[channel][3]
    kept, errors, warned = [], [], set()
    for i, (t, v, s) in enumerate(sorted(rows), start=1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                x = ValueWithUncertainty(v, s)
                if channel == "neutron":
                    g = ValueWithUncertainty(check(t, v), s)
                else:
                    g = propagate_uncertainty(lambda c: check(t, c), x)
                sigma_q = propagate_uncertainty(discord, g).sigma
            except DimerDiscordError as exc:
                errors.append(f"row {i} (T = {t:g} K): {exc}\n")
                continue
        kept.append((t, g.value, g.sigma, sigma_q))
        if caught:
            warned.add(i)
    if not kept:
        return 1, "", "".join(errors), warned
    t, g, sigma_g, sigma_q = (np.array(column) for column in zip(*kept))
    table = results_from_correlators(t, g, channel)
    table = table._replace(sigma_correlator=sigma_g, sigma_discord=sigma_q)
    return 0, write_results(table, precision=17).decode("utf-8"), "".join(errors), warned


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@settings(max_examples=150, deadline=None)
@given(rows=ROWS)
@example(rows=EDGE_ROWS)
def test_column_path_prints_what_the_per_row_path_did(channel, rows, tmp_path_factory):
    # stdout, exit code and every dropped row's line byte for byte; a kept
    # row has one warning line exactly where the per-row path warned
    command, header, to_file, _ = CHANNELS[channel]
    file_rows = [(t, *to_file(t, g, s)) for t, g, s in rows]
    path = tmp_path_factory.mktemp("series") / "series.csv"
    text = "".join(f"{t!r},{v!r},{s!r}\n" for t, v, s in file_rows)
    path.write_text(f"{header}\n{text}", encoding="utf-8")
    code, out, errors, warned = _per_row(file_rows, channel)
    argv = [*command, "--input", str(path)]
    cli_code, cli_out, err = _shown(cli.main, argv, env={"DIMER_DISCORD_PRECISION": "17"})
    assert (cli_code, cli_out) == (code, out)
    lines = err.splitlines(keepends=True)
    assert "".join(line for line in lines if line.startswith("row ")) == errors
    warning_rows = [int(m) for m in re.findall(r"^(?:Data|Propagation)Warning: row (\d+) \(T = ",
                                               err, re.MULTILINE)]
    assert sorted(warning_rows) == sorted(warned)
    assert len(lines) == errors.count("\n") + len(warned)


def _regenerate() -> None:
    out, err = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, out[case], err[case] = _run(case, Path(tmp))
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
    for path, doc in ((GOLDEN, out), (GOLDEN_STDERR, err)):
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
