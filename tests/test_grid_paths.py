"""The two paths of ``theory`` and ``figure``: a grid of up to ``cli._FLOAT_GRID_MAX``
points is a list computed one point at a time in floats, a larger one an array.

The same invocation is run down each path by moving the cut, and must print the
same bytes at every precision.  The grid itself is one formula on both paths:
``i*step + start`` (as ``numpy.linspace``), or ``10.0 ** (i*step + log10(start))``
through libm, with the two ends exact.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dimer_discord import cli
from test_golden_stdout import _shown

FLOAT_PATH, ARRAY_PATH = 10**9, 0  # cuts that send every grid down one path

THEORY = {
    # both cold ends reach the T -> 0 limit of G(T) (|2J/T| > 700)
    "antiferro-log": ["--preset", "copper-nitrate-magnetometric", "--t-min", "0.001",
                      "--t-max", "1000"],
    "ferro-log": ["--preset", "cu2l-oac-ferro", "--t-min", "0.01", "--t-max", "1e5"],
    "antiferro-linear": ["--J-over-kB=-2", "--t-min", "0.01", "--t-max", "20",
                         "--grid", "linear"],
    "ferro-linear": ["--preset", "cu2l-oac-ferro", "--t-min", "1", "--t-max", "300",
                     "--grid", "linear"],
}
PRECISIONS = ["6", "15", "16", "17"]


def _both_paths(monkeypatch, argv, env=None):
    printed = []
    for cut in (FLOAT_PATH, ARRAY_PATH):
        monkeypatch.setattr(cli, "_FLOAT_GRID_MAX", cut)
        printed.append(_shown(cli.main, argv, env=env))
    return printed


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", sorted(THEORY))
def test_theory_prints_the_same_bytes_down_each_path(grid, fmt, precision, monkeypatch):
    argv = ["theory", *THEORY[grid], "--n-points", "300", "--format", fmt]
    floats, arrays = _both_paths(monkeypatch, argv, {"DIMER_DISCORD_PRECISION": precision})
    assert floats[0] == 0 and floats[1].count("\n") >= 300
    assert floats == arrays


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fig", range(1, 7))
def test_figure_prints_the_same_bytes_down_each_path(fig, fmt, precision, monkeypatch):
    argv = ["figure", str(fig), "--n-points", "300", "--format", fmt]
    floats, arrays = _both_paths(monkeypatch, argv, {"DIMER_DISCORD_PRECISION": precision})
    assert floats[0] == 0 and floats[1].count("\n") >= 300
    assert floats == arrays


def test_figure_data_is_lists_below_the_cut_and_arrays_above(monkeypatch):
    for cut, kind in ((FLOAT_PATH, list), (ARRAY_PATH, np.ndarray)):
        monkeypatch.setattr(cli, "_FLOAT_GRID_MAX", cut)
        for fig in range(1, 7):
            _, names, columns = cli._figure_data(fig, 7)
            assert len(columns) == len(names)
            assert all(type(column) is kind and len(column) == 7 for column in columns)


EDGES = {
    "smallest-t-min-log": ["--t-min", "5e-324"],
    "smallest-t-min-linear": ["--t-min", "5e-324", "--grid", "linear"],
    "largest-t-max-log": ["--t-max", "1.7e308"],
    "largest-t-max-linear": ["--t-max", "1.7e308", "--grid", "linear"],
}


@pytest.mark.parametrize("j", ["-2", "2"])
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_grid_edges_print_the_same_bytes_and_no_warning_down_each_path(edge, j):
    # a real process under PYTHONWARNINGS=error, the cut moved before the command runs
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "DIMER_DISCORD_PRECISION"}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), PYTHONWARNINGS="error")
    argv = ["theory", f"--J-over-kB={j}", *EDGES[edge], "--n-points", "50"]
    printed = []
    for cut in (FLOAT_PATH, ARRAY_PATH):
        code = (f"import sys\nfrom dimer_discord import cli\ncli._FLOAT_GRID_MAX = {cut}\n"
                f"sys.exit(cli.main({argv!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=False)
        printed.append((proc.returncode, proc.stdout, proc.stderr))
    assert printed[0] == printed[1]
    assert printed[0][0::2] == (0, "")


def test_a_log_point_that_rounds_past_the_largest_double_is_an_error(capsys):
    argv = ["theory", "--J-over-kB=-2", "--t-min", "1.7976931348623e308",
            "--t-max", "1.7976931348623157e308"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: a grid point from 1.79769e+308 to 1.79769e+308 overflows a double\n")


# (start, stop, n) draws over the whole positive range, ordered, n from 2 to 600
RNG = np.random.default_rng(30)
SAMPLES = [
    (lo, hi, int(n)) for lo, hi, n in zip(
        *np.sort(10.0 ** RNG.uniform(-320.0, 308.0, (2, 150)), axis=0), RNG.integers(2, 600, 150))
    if lo < hi
] + [
    (5e-324, 1.7976931348623157e308, 400), (5e-324, 1e-323, 400), (0.02, 6.0, 400),
    (1.0, 500.0, 20_000), (-1.0, 1.0 / 3.0, 400), (1.0, math.nextafter(1.0, 2.0), 5),
]


def _grids(start, stop, n, spacing, monkeypatch):
    grids = []
    for cut in (FLOAT_PATH, ARRAY_PATH):
        monkeypatch.setattr(cli, "_FLOAT_GRID_MAX", cut)
        grids.append(cli._grid(start, stop, n, spacing))
    assert type(grids[0]) is list and type(grids[1]) is np.ndarray
    return grids


def _bits(points) -> list[int]:
    return np.asarray(points, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_list_and_array_grids_are_equal_in_bits_with_exact_ends(spacing, monkeypatch):
    for start, stop, n in SAMPLES:
        if spacing == "log" and start <= 0.0:
            continue
        listed, array = _grids(start, stop, n, spacing, monkeypatch)
        assert len(listed) == n and _bits(listed) == _bits(array), (start, stop, n)
        assert (listed[0], listed[-1]) == (start, stop)


def test_the_linear_grid_is_numpy_linspace(monkeypatch):
    for start, stop, n in SAMPLES:
        listed, _ = _grids(start, stop, n, "linear", monkeypatch)
        with np.errstate(over="ignore"):  # numpy also multiplies out the end, which it replaces
            expected = np.linspace(start, stop, n)
        assert _bits(listed) == _bits(expected), (start, stop, n)


def test_each_log_point_is_within_an_ulp_of_ten_to_its_exponent(monkeypatch):
    # the exponent is the double i*step + log10(start); its power is taken at 40 digits
    for start, stop, n in SAMPLES[::5] + SAMPLES[-6:-2]:
        listed, _ = _grids(start, stop, min(n, 400), "log", monkeypatch)
        lo = math.log10(start)
        step = (math.log10(stop) - lo) / (len(listed) - 1)
        with mpmath.workdps(40):
            for i, point in enumerate(listed[1:-1], 1):
                exact = mpmath.power(10, mpmath.mpf(i * step + lo))
                assert abs(mpmath.mpf(point) - exact) <= math.ulp(point), (start, stop, n, i)
