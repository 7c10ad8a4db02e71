"""Cold start: no command, ``fit`` included, imports scipy.

Each case runs a fresh interpreter under ``-X importtime``, which lists on
stderr every module the process imported.
"""

import json
import os
import subprocess
import sys

from test_golden_stdout import GOLDEN, _argv


def _run(args: list[str]) -> tuple[str, set[str]]:
    env = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, check=True,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, modules


def _golden(case: str) -> str:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[case]


def _scipy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


def test_package_import_loads_no_scipy():
    _, modules = _run(["-c", "import dimer_discord"])
    assert "dimer_discord.numerics" in modules
    assert _scipy(modules) == []


def test_landmarks_loads_no_scipy():
    out, modules = _run(["-m", "dimer_discord", "landmarks", "--preset", "copper-acetate-hydrate"])
    assert out == _golden("landmarks-antiferro-g")
    assert _scipy(modules) == []


def test_fit_loads_no_scipy(tmp_path):
    out, modules = _run(["-m", "dimer_discord", *_argv("fit-csv", tmp_path)])
    assert out == _golden("fit-csv")
    assert _scipy(modules) == []
