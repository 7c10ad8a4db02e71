"""Contract fuzz of the command line: drawn argv and input files for every subcommand.

Each example runs ``cli.main`` in process twice and checks the contract of
``dimer_discord.cli``:

* it returns 0, 1 or 2, or argparse raises ``SystemExit(2)`` with a last
  stderr line holding ``: error: ``;
* on 1 or 2 the last stderr line starts with ``error:`` or ``usage error:``.
  The two documented exit-1 outputs that carry no such line are kept as they
  are: a fit that did not converge prints its best point on stdout and says
  so on stderr, and a series whose every row is dropped ends with the last
  row's ``row N (T = X K): reason`` line;
* on 0, stdout holds no ``nan`` or ``inf`` token, and every number on it reads back
  as a finite double: each CSV cell and ``key = value`` value that reads as a number,
  and each JSON number (a NaN or an infinity token fails to parse);
* no stderr line is a numpy ``RuntimeWarning``;
* both runs give the same exit code and the same bytes;
* every result table it writes, unchecked, passes the check that ``write_results``
  makes of a table it is handed, and comes back from it cell for cell.

Numbers are drawn from the edge values 0, -0, 5e-324, 1e308, the largest double,
inf and nan (with their negatives) and from ordinary ones.  Files hold 0-6 rows: rows of
a copper nitrate curve, rows with edge values or bad tokens put in, and rows
with a wrong field count, with CRLF line ends and form feeds in comments.
Most invocations give one coupling, one g and the required flags, so that
they reach the computation; some give none or two.  Examples are
derandomized, so every run draws the same ones.  Run more of them, for each
subcommand in turn, with

    PYTHONPATH=src python tests/test_cli_fuzz.py 1000
"""

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimer_discord import cli, dataio
from dimer_discord.dataio import PRESETS
from test_golden_stdout import checked_results_text

EDGES = ["0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "1.7976931348623157e308", "inf",
         "-inf", "nan", "-nan"]


def numbers(*ordinary: str) -> st.SearchStrategy[str]:
    """An ordinary value of the flag, about twice in three draws, or an edge value;
    examples shrink toward the first ordinary value."""
    return st.sampled_from([*ordinary] * (20 // len(ordinary)) + EDGES)


COUNTS = st.sampled_from(["7", "2", "0", "-0", "1", "5e-324", "1e308", "nan"])
TEMPERATURES = numbers("4", "0.3", "1", "2", "8", "-4")
BAD_TOKENS = ["", "abc", "1e999", "0x10", "--", " 4 ", "1_0"]
FILE = "FILE"  # stands for the drawn input file's path

COUPLING = {
    "--J-over-kB": numbers("-2.56", "35.4", "-2", "1e-300"),
    "--2J-over-kB": numbers("-5.12", "70.8"),
    "--preset": st.sampled_from(sorted(PRESETS) + ["no-such-preset"]),
}
G_FACTOR = {
    "--g-factor": numbers("2.11", "2", "0.3", "-2"),
    "--g-tensor": st.lists(numbers("2.11", "1.9", "1e-200", "1e200"), min_size=3, max_size=3),
}
FORMAT = {"--format": st.sampled_from(["csv", "json", "xml"])}
PER = {"--per": st.sampled_from(["dimer", "monomer"])}
INPUT = {"--input": st.just(FILE)}
ROUTE = {"--route": st.sampled_from(["invert", "integrate"])}

# subcommand: (flag groups of which one flag is usually given, other flags)
SUBCOMMANDS = {
    "theory": ([COUPLING, G_FACTOR], {
        "--t-min": TEMPERATURES, "--t-max": TEMPERATURES, "--n-points": COUNTS,
        "--grid": st.sampled_from(["log", "linear"]), **FORMAT,
    }),
    "landmarks": ([COUPLING, G_FACTOR], {}),
    "from-neutron": ([{
        "--G": st.sampled_from(
            ["-0.54(9)", "0.3(1)", "-1.2(0)", "1e308(9)", "5e-324(1)", "-0(0)", "nan", "inf(1)",
             "-1.004(5)", "-0.5(3)e-1"] + EDGES
        ),
        **INPUT,
    }], {"--T": TEMPERATURES, **FORMAT}),
    "from-chi": ([INPUT, COUPLING, G_FACTOR], {**PER, **FORMAT}),
    "from-cm": ([
        ROUTE, COUPLING, G_FACTOR, {"--T": TEMPERATURES}, INPUT,
        {"--cm-over-R": numbers("0.4", "0.1", "1.02", "1.5")},
    ], {
        "--tail-a": numbers("6.6", "0"), "--tail-from": TEMPERATURES,
        "--u0-over-R": numbers("-3.84", "0"), **PER, **FORMAT,
    }),
    "fit": ([INPUT, COUPLING, G_FACTOR], {**PER, **FORMAT}),
    "figure": ([], {"--n-points": COUNTS, **FORMAT}),
}

# a copper nitrate curve, J/k_B = -2.56 K and g = 2.11: (T, chi, G, c_m/R) to six digits
CURVE = [
    ("1", "0.0196107", "-0.976517", "0.453565"),
    ("2", "0.104808", "-0.748993", "1.00149"),
    ("3", "0.130833", "-0.529996", "0.664811"),
    ("4", "0.126595", "-0.393631", "0.406249"),
    ("6", "0.104112", "-0.251981", "0.179334"),
    ("8", "0.0852754", "-0.183087", "0.0971989"),
]
# header: the CURVE column of its value
HEADERS = {
    "T_K,chi_emu_per_mol": 1, "T_K,chi_emu_per_mol,sigma_chi": 1, "T_K,G": 2,
    "T_K,G,sigma_G": 2, "T_K,cm_over_R": 3, "T_K,cm_J_per_mol_K,sigma": 3,
    "chi_emu_per_mol,T_K": 1, "T_K": 0, "x,y": 1,
}
# the header each subcommand reads first, the others after it
READS = {"from-neutron": "T_K,G,sigma_G", "from-cm": "T_K,cm_over_R"}
COMMENTS = ["# measured\f", "\f# page two", "#", "   "]


@st.composite
def input_files(draw, subcommand: str) -> str:
    """A CSV text: an optional header, 0-6 rows and comments, one line end throughout."""
    read = READS.get(subcommand, "T_K,chi_emu_per_mol,sigma_chi")
    header = draw(st.sampled_from([read] + sorted(set(HEADERS) - {read})))
    column, width = HEADERS[header], header.count(",") + 1
    lines = [] if draw(st.integers(0, 3)) == 3 else [header]
    token = st.sampled_from(EDGES + BAD_TOKENS)
    for row in sorted(draw(st.permutations(CURVE))[: draw(st.integers(0, 6))]):
        if draw(st.integers(0, 5)) == 5:
            lines.append(draw(st.sampled_from(COMMENTS)))
        fields = [row[0], row[column], "0.001"][:width]
        if header.startswith("chi"):
            fields = fields[::-1]
        kind = draw(st.sampled_from(["curve", "edge", "count"]))
        if kind == "edge":  # an edge value or a bad token in one field
            fields[draw(st.integers(0, width - 1))] = draw(token)
        elif kind == "count":  # a wrong field count
            fields = draw(st.lists(st.one_of(TEMPERATURES, token), min_size=1, max_size=4))
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end * draw(st.booleans())


def _flag(draw, argv: list[str], flags: dict, flag: str) -> None:
    value = draw(flags[flag])
    if isinstance(value, list):  # --g-tensor takes three arguments
        argv += [flag, *value]
    else:
        argv.append(f"{flag}={value}")


@st.composite
def invocations(draw, subcommand: str) -> list[str]:
    """argv for ``subcommand``: mostly one flag of each group, then a few other flags."""
    argv = [subcommand]
    if subcommand == "figure":
        argv.append(draw(st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "7"])))
    groups, others = SUBCOMMANDS[subcommand]
    for group in groups:
        for flag in draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]).flatmap(
            lambda n: st.lists(st.sampled_from(sorted(group)), min_size=n, max_size=n)
        )):
            _flag(draw, argv, group, flag)
    if others:
        for flag in draw(st.lists(st.sampled_from(sorted(others)), unique=True, max_size=4)):
            _flag(draw, argv, others, flag)
    return argv


def _invoke(argv: list[str], precision: str | None) -> tuple[object, str, str]:
    """``cli.main(argv)`` under the precision variable: (exit, stdout, stderr), every result
    table it writes checked by ``checked_results_text``."""
    env = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}
    if precision is not None:
        env["DIMER_DISCORD_PRECISION"] = precision
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(dataio, "_results_text", checked_results_text):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


NON_FINITE = re.compile(r"(?<![\w.])[+-]?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)
NOT_CONVERGED = "fit did not converge; best parameters so far reported"
DROPPED_ROW = re.compile(r"row \d+ \(T = [^)]*\): ")


def _no_constant(token: str) -> None:
    raise AssertionError(f"JSON holds {token}")


def printed_numbers(out: str) -> list[float]:
    """Every number on stdout, read back as a double: each JSON number, or each CSV cell
    and ``key = value`` value that reads as one (a ``#`` line is a title)."""
    numbers = []
    if out.startswith("{"):
        json.loads(out, parse_float=lambda s: numbers.append(float(s)),
                   parse_constant=_no_constant)
        return numbers
    for line in out.splitlines():
        if not line.startswith("#"):
            for cell in [line.partition(" = ")[2]] if " = " in line else line.split(","):
                with contextlib.suppress(ValueError):
                    numbers.append(float(cell))
    return numbers


def check_contract(argv: list[str], result: tuple[object, str, str]) -> None:
    code, out, err = result
    last = err.splitlines()[-1] if err else ""
    assert not any(line.startswith("RuntimeWarning") for line in err.splitlines()), (argv, err)
    if isinstance(code, tuple):  # argparse's own exit
        assert code == ("SystemExit", 2), (argv, code)
        assert ": error: " in last, (argv, err)
        return
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert NON_FINITE.search(out) is None, (argv, out)
        assert all(map(math.isfinite, printed_numbers(out))), (argv, out)
    elif not last.startswith(("error:", "usage error:")):
        documented = (
            (argv[0] == "fit" and last == NOT_CONVERGED and "converged" in out)
            or (DROPPED_ROW.match(last) is not None and out == "")
        )
        assert code == 1 and documented, (argv, code, err)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz") / "input.csv"


def check_examples(subcommand: str, input_path: Path, examples: int) -> None:
    """The contract on ``examples`` drawn invocations of ``subcommand``, each run twice."""
    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(
        argv=invocations(subcommand),
        text=input_files(subcommand),
        precision=st.sampled_from([None, None, "6", "17", "1", "0", "x"]),
    )
    def contract(argv, text, precision):
        input_path.write_bytes(text.encode("utf-8"))  # bytes: CRLF stays as drawn
        argv = [a.replace(FILE, str(input_path)) for a in argv]
        first = _invoke(argv, precision)
        check_contract(argv, first)
        assert _invoke(argv, precision) == first, argv

    contract()


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_cli_contract(subcommand, input_path):
    check_examples(subcommand, input_path, 40)


# a JSON value that %.{p}g rounds past the largest double raised a bare ValueError from json:
# (argv, input file, precision) by id
JSON_PAST_THE_LARGEST_DOUBLE = {
    "from-neutron-point-json-p1":
        (["from-neutron", "--G=-0.5", "--T=1.7e308", "--format=json"], "", "1"),
    "from-neutron-point-json-p5":
        (["from-neutron", "--G=-0.5", "--T=1.7976931348623157e308", "--format=json"], "", "5"),
    "from-neutron-series-json-p1":
        (["from-neutron", f"--input={FILE}", "--format=json"], "T_K,G\n1.7e308,-0.5\n2,-0.4\n",
         "1"),
    "theory-json-p1": (["theory", "--J-over-kB=-1e306", "--t-min=1e307", "--t-max=1.7e308",
                        "--n-points=2", "--format=json"], "", "1"),
    "from-cm-json-p1": (["from-cm", "--route=integrate", "--tail-a=1", "--tail-from=1.7e308",
                         "--J-over-kB=-1e-300", "--format=json"], "", "1"),
}
# the same in CSV, and key = value lines, printed the value (T_K = 2e+308) with exit 0
PAST_THE_LARGEST_DOUBLE = {
    **JSON_PAST_THE_LARGEST_DOUBLE,
    **{name.replace("-json-", "-csv-"): ([a for a in argv if a != "--format=json"], text, p)
       for name, (argv, text, p) in JSON_PAST_THE_LARGEST_DOUBLE.items()},
    "landmarks-ferro-p1": (["landmarks", "--J-over-kB=1.7e308"], "", "1"),
}
# each one's error, by its id without the format: the cell, the value, a precision that prints it
REFUSED = {
    "from-neutron-point-p1": "T_K in row 1: 1.7e+308 rounds past the largest double at "
                             "precision 1; precision 2 prints it",
    "from-neutron-point-p5": "T_K in row 1: 1.7976931348623157e+308 rounds past the largest "
                             "double at precision 5; precision 6 prints it",
    "from-neutron-series-p1": "T_K in row 2: 1.7e+308 rounds past the largest double at "
                              "precision 1; precision 2 prints it",
    "theory-p1": "T_K in row 2: 1.7e+308 rounds past the largest double at precision 1; "
                 "precision 2 prints it",
    "from-cm-p1": "T_K in row 1: 1.7e+308 rounds past the largest double at precision 1; "
                  "precision 2 prints it",
    "landmarks-ferro-p1": "J_over_kB_K in row 2: 1.7e+308 rounds past the largest double at "
                          "precision 1; precision 2 prints it",
}


def _run_case(argv: list[str], text: str, precision: str | None, input_path: Path):
    input_path.write_text(text)
    argv = [a.replace(FILE, str(input_path)) for a in argv]
    return argv, _invoke(argv, precision)


@pytest.mark.parametrize(
    "argv, text, precision",
    [
        # a susceptibility peak beyond the largest double printed "inf" with exit 0
        (["landmarks", "--J-over-kB=-5e-324", "--g-factor=2.11"], "", None),
        # |J| from 1e-6 of the lowest temperature underflowed to 0: math.log raised ValueError
        (["fit", f"--input={FILE}", "--J-over-kB=-2.56", "--g-factor=2.11"],
         "T_K,chi_emu_per_mol,sigma_chi\n1,0.0196107,0.001\n2,0.104808,0.001\n"
         "5e-324,0.130833,0.001\n", None),
        # a cost past the largest double printed residual_norm = inf with exit 0
        (["fit", f"--input={FILE}", "--2J-over-kB=70.8", "--g-factor=2.11"],
         "chi_emu_per_mol,T_K\n0.0196107,1\n1e308,2\n0.130833,3", None),
        # T (3 + e) past the largest double printed numpy overflow warnings, then exit 0
        (["fit", f"--input={FILE}", "--2J-over-kB=-5.12"],
         "T_K,chi_emu_per_mol\n1,0.05\n1e308,0.001\n3,0.02\n", None),
        # a per-monomer chi doubled past the largest double printed a numpy warning
        # and dropped its row as "susceptibility inf emu/mol"
        (["from-chi", f"--input={FILE}", "--per=monomer", "--g-factor=2.11"],
         "T_K,chi_emu_per_mol,sigma_chi\n3,1e308,0.001\n4,0.0126595,0.001\n", None),
        # chi of 1e-160, whose squares underflow: the solver divided by 0 (ZeroDivisionError)
        (["fit", f"--input={FILE}", "--J-over-kB=-1"],
         "T_K,chi_emu_per_mol\n1,1e-160\n2,2e-160\n3,1.5e-160\n4,1e-160\n", None),
        *PAST_THE_LARGEST_DOUBLE.values(),
    ],
    ids=[
        "landmarks-chi-peak-overflow", "fit-subnormal-temperature", "fit-cost-overflow",
        "fit-temperature-overflow", "from-chi-monomer-overflow", "fit-underflowing-squares",
        *PAST_THE_LARGEST_DOUBLE,
    ],
)
def test_drawn_faults_stay_mended(argv, text, precision, input_path):
    check_contract(*_run_case(argv, text, precision, input_path))


@pytest.mark.parametrize("case", PAST_THE_LARGEST_DOUBLE)
def test_a_json_value_past_the_largest_double_is_one_error_line(case, input_path):
    # in every format: one error naming the cell, where JSON gave json.dumps' words
    _, (code, out, err) = _run_case(*PAST_THE_LARGEST_DOUBLE[case], input_path)
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    words = REFUSED[case.replace("-json-", "-").replace("-csv-", "-")]
    assert errors == [err.splitlines()[-1]] == [f"error: {words}"]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    j=st.floats(1e-3, 1e3).flatmap(lambda j: st.sampled_from([-j, j])),
    start=st.floats(-2.0, 2.0),
    decades=st.floats(0.01, 4.0),
    n=st.integers(2, 50),
    grid=st.sampled_from(["log", "linear"]),
)
def test_a_theory_table_reads_back_cell_for_cell(j, start, decades, n, grid, input_path):
    # the README's promise: the tool's own output fed back in as a correlator series
    # reprints every cell at 17 digits, the channel aside
    t_min = abs(j) * 10.0**start
    argv = ["theory", f"--J-over-kB={j!r}", f"--t-min={t_min!r}",
            f"--t-max={t_min * 10.0**decades!r}", f"--n-points={n}", f"--grid={grid}"]
    code, table, _ = _invoke(argv, "17")
    assert code == 0, argv
    input_path.write_text(table)
    code, again, err = _invoke(["from-neutron", f"--input={input_path}"], "17")
    assert (code, err) == (0, ""), argv
    assert again.replace(",neutron\n", ",theory\n") == table, argv


if __name__ == "__main__":
    import sys
    import tempfile
    import time

    examples = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as directory:
        for subcommand in sorted(SUBCOMMANDS):
            start = time.perf_counter()
            check_examples(subcommand, Path(directory) / "input.csv", examples)
            print(f"{subcommand}: {examples} examples, each run twice, kept the contract "
                  f"({time.perf_counter() - start:.1f} s)")
