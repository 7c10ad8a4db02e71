"""The launcher of ``python -m dimer_discord`` and of the ``dimer-discord`` console script.

:func:`run` returns :func:`dimer_discord.cli.main`'s exit code, and on the way
out, whether ``main`` returned or raised (argparse's ``SystemExit`` included),
it calls ``gc.freeze()``.  A one-shot command does microseconds of physics, yet
the interpreter's shutdown runs several full garbage collections over every
tracked object: about 13k of them after ``landmarks`` and 22k once numpy is
loaded.  Frozen objects sit in the permanent generation, which no collection
visits, so those collections find next to nothing to walk.  The rest of the
shutdown is as before: atexit handlers run, stdout and stderr are flushed,
modules are torn down, and the exit code and every output byte stay the same.

``os._exit`` after explicit flushes would save a little more, but it skips the
atexit handlers, and with them a caller's own handlers and coverage's report of
the process.  ``cli.main`` itself does not freeze: tests and tools call it in
process, and the frozen objects would then outlive every later collection.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line, and freeze the heap so that shutdown skips it."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
