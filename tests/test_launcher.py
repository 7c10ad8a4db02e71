"""The launcher: ``python -m dimer_discord`` and the console script run
``__main__.run``, which freezes the heap on the way out so that the
interpreter's shutdown collections skip it.  Nothing a caller can see changes:
the exit code, stdout, stderr and the caller's own atexit handlers are as
under a plain ``sys.exit(main())``, and ``cli.main`` run in process freezes
nothing.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimer_discord import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {k: v for k, v in os.environ.items() if k != "DIMER_DISCORD_PRECISION"}

# the launcher this one replaced: main's exit code, nothing frozen
PLAIN = "import sys\nfrom dimer_discord.cli import main\nsys.exit(main())\n"


def _process(argv: list[str], code: str | None = None) -> tuple[int, str, str]:
    command = ["-m", "dimer_discord"] if code is None else ["-c", code]
    proc = subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True, env=ENV
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["landmarks", "--preset", "copper-acetate-hydrate"], 0),
        (["from-neutron", "--G=-1.2(0)"], 1),  # a DimerDiscordError
        (["landmarks", "--J-over-kB=-2", "--g-factor=1e200"], 1),
        (["from-neutron", "--G=-0.54(9)", "--bogus"], 2),  # argparse's own usage error
        (["landmarks"], 2),  # the CLI's usage error
    ],
)
def test_launcher_prints_and_exits_as_a_plain_launcher(argv, code):
    launched = _process(argv)
    assert launched[0] == code
    assert launched == _process(argv, PLAIN)


def test_a_callers_atexit_handler_still_runs(tmp_path):
    # as test_cold_start runs the CLI: through runpy, under a handler of the caller's
    argv = ["dimer-discord", "landmarks", "--preset", "copper-acetate-hydrate"]
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('handler ran', file=sys.stderr))\n"
        f"sys.argv = {argv!r}\n"
        "runpy.run_module('dimer_discord', run_name='__main__')\n"
    )
    returncode, out, err = _process([], code)
    assert (returncode, err) == (0, "handler ran\n")
    assert out == _process(argv[1:])[1]


def test_run_freezes_and_returns_the_exit_code():
    code = (
        "import gc, sys\n"
        "from dimer_discord.__main__ import run\n"
        "assert gc.get_freeze_count() == 0\n"
        "sys.argv = ['dimer-discord', 'nonsense']  # argparse exits\n"
        "try:\n"
        "    run()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        "sys.argv = ['dimer-discord', 'from-neutron', '--G=-0.5', '--T', '4']\n"
        "gc.unfreeze()\n"
        "print(run(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    returncode, _, err = _process([], code)
    assert (returncode, err.splitlines()[-2:]) == (0, ["2 True", "0 True"])


def test_main_in_process_freezes_nothing(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["landmarks", "--preset", "copper-acetate-hydrate"]) == 0
    assert cli.main(["from-neutron", "--G=-1.2(0)"]) == 1
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_the_console_script_is_the_launcher():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]")[2].split("\n[")[0]
    assert scripts.strip() == 'dimer-discord = "dimer_discord.__main__:run"'
