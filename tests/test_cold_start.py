"""Cold start: no command imports scipy, scalar commands import no numpy,
``dataclasses`` or ``inspect``, and only a JSON command imports ``json``.

Each case runs a fresh interpreter that lists ``sys.modules`` as it exits:
every module the process imported.  The modules a bare interpreter imports
on its own (``site`` and whatever ``.pth`` files pull in) are set aside, so
that only what the package and the command import is judged.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden_stdout import GOLDEN, GOLDEN_STDERR, _argv

# the commands whose physics is a handful of floats: they run on the
# standard library alone
SCALAR_CASES = [
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


def _run(code: str, workdir) -> tuple[str, str, set[str]]:
    """Stdout, stderr and the modules imported by a fresh interpreter running ``code``."""
    listing = workdir / "modules.txt"
    report = (
        "import atexit, sys\n"
        "def _report():\n"
        f"    with open({str(listing)!r}, 'w') as f:\n"
        "        f.write(' '.join(sys.modules))\n"
        "atexit.register(_report)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}
    proc = subprocess.run(
        [sys.executable, "-c", report + code], capture_output=True, text=True, env=env, check=True
    )
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
    out, err, modules = _run(_command(case, tmp_path), tmp_path)
    assert (out, err) == _golden(case)
    foreign = sorted(
        m for m in modules - interpreter_modules
        if m.split(".")[0] not in sys.stdlib_module_names | {"dimer_discord"}
    )
    assert foreign == []


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_command_loads_no_dataclasses_or_inspect(case, interpreter_modules, tmp_path):
    # the records are NamedTuples: building them needs neither module at start-up
    _, _, modules = _run(_command(case, tmp_path), tmp_path)
    assert {"dataclasses", "inspect"} & (modules - interpreter_modules) == set()


def test_theory_still_loads_numpy_and_prints_its_golden_bytes(tmp_path):
    out, err, modules = _run(_command("theory-csv", tmp_path), tmp_path)
    assert (out, err) == _golden("theory-csv")
    assert "numpy" in modules


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
