"""Cold start: no command imports scipy, scalar commands import no numpy,
``dataclasses`` or ``inspect``, and only a JSON command imports ``json``.
``theory`` and ``figure`` are scalar commands up to ``cli._FLOAT_GRID_MAX``
grid points, and load numpy above it.

Each case runs a fresh interpreter that lists ``sys.modules`` as it exits:
every module the process imported.  The modules a bare interpreter imports
on its own (``site`` and whatever ``.pth`` files pull in) are set aside, so
that only what the package and the command import is judged.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimer_discord.cli import _FLOAT_GRID_MAX
from test_golden_stdout import CASE_ENV, GOLDEN, GOLDEN_STDERR, _argv

# the commands whose physics is a handful of floats, theory and figure grids up to
# cli._FLOAT_GRID_MAX points among them: they run on the standard library alone
SCALAR_CASES = [
    "theory-csv",
    "theory-json",
    *(f"figure-{fig}-{fmt}" for fig in range(1, 7) for fmt in ("csv", "json")),
    "figure-3-json-p17",
    "landmarks-antiferro-g",
    "landmarks-antiferro-tensor",
    "landmarks-antiferro-no-g",
    "landmarks-ferro",
    "neutron-point-csv",
    "neutron-point-json",
    "cm-invert-hot",
    "cm-invert-cold",
    "cm-integrate-tail",
]


def _run(code: str, workdir, case_env=None) -> tuple[str, str, set[str]]:
    """Stdout, stderr and the modules imported by a fresh interpreter running ``code``, with
    the environment of a golden case added."""
    listing = workdir / "modules.txt"
    report = (
        "import atexit, sys\n"
        "def _report():\n"
        f"    with open({str(listing)!r}, 'w') as f:\n"
        "        f.write(' '.join(sys.modules))\n"
        "atexit.register(_report)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}
    proc = subprocess.run([sys.executable, "-c", report + code], capture_output=True, text=True,
                          env={**env, **(case_env or {})}, check=True)
    return proc.stdout, proc.stderr, set(listing.read_text(encoding="utf-8").split())


def _command(case: str, workdir) -> str:
    """Code that runs the CLI on the arguments of a golden case, as ``python -m`` does."""
    argv = ["dimer-discord", *_argv(case, workdir)]
    return (
        f"import runpy\nsys.argv = {argv!r}\n"
        "runpy.run_module('dimer_discord', run_name='__main__')\n"
    )


def _golden(case: str) -> tuple[str, str]:
    return tuple(
        json.loads(path.read_text(encoding="utf-8"))[case] for path in (GOLDEN, GOLDEN_STDERR)
    )


def _package(modules: set[str], name: str) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == name)


@pytest.fixture(scope="module")
def interpreter_modules(tmp_path_factory) -> set[str]:
    return _run("pass", tmp_path_factory.mktemp("bare"))[2]


def test_package_import_loads_no_scipy(tmp_path):
    _, _, modules = _run("import dimer_discord", tmp_path)
    assert "dimer_discord.numerics" in modules
    assert _package(modules, "scipy") == []


def test_package_import_loads_no_numpy(tmp_path):
    _, _, modules = _run("import dimer_discord", tmp_path)
    assert "dimer_discord.numerics" in modules
    assert _package(modules, "numpy") == []


def test_landmarks_loads_no_scipy(tmp_path):
    out, _, modules = _run(_command("landmarks-antiferro-g", tmp_path), tmp_path)
    assert out == _golden("landmarks-antiferro-g")[0]
    assert _package(modules, "scipy") == []


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_command_runs_on_the_standard_library(case, interpreter_modules, tmp_path):
    out, err, modules = _run(_command(case, tmp_path), tmp_path, CASE_ENV.get(case))
    assert (out, err) == _golden(case)
    foreign = sorted(
        m for m in modules - interpreter_modules
        if m.split(".")[0] not in sys.stdlib_module_names | {"dimer_discord"}
    )
    assert foreign == []


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_command_loads_no_dataclasses_or_inspect(case, interpreter_modules, tmp_path):
    # the records are NamedTuples: building them needs neither module at start-up
    _, _, modules = _run(_command(case, tmp_path), tmp_path, CASE_ENV.get(case))
    assert {"dataclasses", "inspect"} & (modules - interpreter_modules) == set()


def test_a_float_record_loads_no_numpy(tmp_path):
    # a clamped point walks the whole measured path: the clamp, both secants and the warning
    code = (
        "import dimer_discord as d\n"
        "r = d.result_from_correlator(4.0, d.ValueWithUncertainty(-1.005, 0.01), 'neutron')\n"
        "print(r.correlator.value)\n"
    )
    out, err, modules = _run(code, tmp_path)
    assert out == "-1.0\n" and "DataWarning: neutron point implies correlator -1.005" in err
    assert _package(modules, "numpy") == []


@pytest.mark.parametrize(
    "command",
    [["theory", "--preset", "copper-nitrate-calorimetric"], ["figure", "1"], ["figure", "3"]],
    ids=" ".join,
)
def test_a_grid_loads_numpy_only_above_the_cut(command, tmp_path):
    # up to the cut the points are computed one by one in floats; one point more is an array
    loaded = []
    for n in (_FLOAT_GRID_MAX, _FLOAT_GRID_MAX + 1):
        argv = ["dimer-discord", *command, "--n-points", str(n)]
        code = (f"import runpy\nsys.argv = {argv!r}\n"
                "runpy.run_module('dimer_discord', run_name='__main__')\n")
        out, err, modules = _run(code, tmp_path)
        assert (out.count("\n"), err) == (n + 1 + (command[0] == "figure"), "")
        loaded.append("numpy" in modules)
    assert loaded == [False, True]


def test_fit_loads_no_scipy(tmp_path):
    out, _, modules = _run(_command("fit-csv", tmp_path), tmp_path)
    assert out == _golden("fit-csv")[0]
    assert _package(modules, "scipy") == []


@pytest.mark.parametrize(
    "case, loads_json",
    [
        ("landmarks-antiferro-g", False),
        ("chi-csv", False),
        ("chi-monomer-json", True),
        ("neutron-point-json", True),
    ],
)
def test_only_a_json_command_loads_json(case, loads_json, interpreter_modules, tmp_path):
    out, err, modules = _run(_command(case, tmp_path), tmp_path)
    assert (out, err) == _golden(case)
    assert ("json" in modules - interpreter_modules) is loads_json


# every CPython 3.10+ that pyenv holds, one of which is the 3.10 floor of requires-python,
# and a venv of this interpreter without pip, which holds no numpy
PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
INTERPRETERS = sorted(
    PYENV_VERSIONS.glob("3.1[0-9].*/bin/python3"),
    key=lambda p: tuple(map(int, p.parts[-3].split(".")[:2])),
)
BARE_VENV = "bare-venv"


@pytest.fixture(scope="module")
def bare_venv(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("venv")
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(root)], check=True)
    python = root / "bin" / "python"
    found = subprocess.run([python, "-c", "import importlib.util as u; print(u.find_spec('numpy'))"],
                           capture_output=True, text=True, check=True)
    assert found.stdout == "None\n", "the bare venv has numpy"
    return python


@pytest.mark.parametrize(
    "python", [*INTERPRETERS, BARE_VENV], ids=[*(p.parts[-3] for p in INTERPRETERS), BARE_VENV]
)
def test_scalar_cases_print_their_goldens_under_each_interpreter(python, request, tmp_path):
    # these commands need only the standard library, so any 3.10+ interpreter, numpy or not,
    # must print their golden bytes; the cases run one at a time
    if python == BARE_VENV:
        python = request.getfixturevalue("bare_venv")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "DIMER_DISCORD_PRECISION"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for case in SCALAR_CASES:
        proc = subprocess.run([str(python), "-m", "dimer_discord", *_argv(case, tmp_path)],
                              capture_output=True, env={**env, **CASE_ENV.get(case, {})},
                              check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, *(text.encode("utf-8") for text in _golden(case))), case
