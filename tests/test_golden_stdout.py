"""Golden stdout: one small invocation per subcommand and format, run in process.

Each case runs ``cli.main`` on fixed arguments and small fixture files and
compares stdout byte for byte with ``golden_stdout.json``.  The ``-p17`` cases
print at ``DIMER_DISCORD_PRECISION=17``, so that a change in the last bit of
any computed column shows.  The expected
bytes change only with a deliberate change to what the CLI prints; after
one, regenerate them with

    PYTHONPATH=src python tests/test_golden_stdout.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from dimer_discord import cli

GOLDEN = Path(__file__).with_name("golden_stdout.json")

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

FIXTURES = {"chi": CHI8, "correlator": CORRELATOR, "cm": SPECIFIC_HEAT}

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
}

CASE_ENV = {case: {"DIMER_DISCORD_PRECISION": "17"} for case in CASES if case.endswith("-p17")}


def _argv(case: str, workdir: Path) -> list[str]:
    paths = {name: workdir / f"{name}.csv" for name in FIXTURES}
    for name, path in paths.items():
        path.write_text(FIXTURES[name], encoding="utf-8")
    return [a.format_map(paths) for a in CASES[case]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, golden, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DIMER_DISCORD_PRECISION", raising=False)
    for name, value in CASE_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    argv = _argv(case, tmp_path)
    capsys.readouterr()
    code = cli.main(argv)
    assert code == 0
    assert capsys.readouterr().out == golden[case]


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


def _regenerate() -> None:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            buf = io.StringIO()
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(buf))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                stack.enter_context(_environment(CASE_ENV.get(case, {})))
                code = cli.main(_argv(case, Path(tmp)))
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
            out[case] = buf.getvalue()
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
