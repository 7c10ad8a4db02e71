"""Calibration probes that scale every timing to a reference host speed.

The host this benchmark was defined on (2 vCPUs of a 2.1 GHz Xeon) changes
speed by up to 2x from one minute to the next, and a whole run can fall in
a slow phase, so no statistic within a run removes it.  Each timing is
therefore bracketed by probes run just before and just after on the same
CPU, and reported as

    seconds * REFERENCE / mean(probe before, probe after)

which is the time the work takes where the probe takes its reference time
(about its time on that host at full speed).  The probes run only
benchmark and standard-library code, so a change to the program moves the
scaled numbers as it moves the raw ones.

Two probes: ``spawn_probe`` starts an interpreter that imports a few
standard-library packages, ``loop_probe`` runs a fixed pure-Python loop.
Library passes are scaled by the loop probe.  CLI processes and the import
timing are scaled by the geometric mean of both factors (``cli_scale``): on
that host each probe alone tracked a process's time only loosely (spawn
times fall into two bands 50 ms apart), and the two together left less
spread than either.
"""

import math
import subprocess
import sys
import time

REFERENCE_SPAWN_S = 0.070
REFERENCE_LOOP_S = 0.006
_SPAWN_PROBE = "import argparse, dataclasses, decimal, email.parser, json"


def spawn_probe(cwd):
    """Seconds to start an interpreter that imports a few standard-library packages."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", _SPAWN_PROBE], cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - start


def loop_probe():
    """Seconds taken by a fixed pure-Python loop (float math, calls and a dict), best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(20_000):
            x = math.sqrt(i + 1.0)
            acc += math.log(x) * 0.5 - x / (i + 2.0)
            table[i & 63] = (acc, x)
        best = min(best, time.perf_counter() - start)
    return best


def cli_probe(cwd):
    """Both probes, for ``cli_scale``: (spawn seconds, loop seconds)."""
    return spawn_probe(cwd), loop_probe()


def scale(reference, before, after):
    """Factor turning seconds measured between two probes into reference seconds."""
    return reference / (0.5 * (before + after))


def cli_scale(before, after):
    """``scale`` for a process between two ``cli_probe`` results: geometric mean of both factors."""
    return math.sqrt(scale(REFERENCE_SPAWN_S, before[0], after[0])
                     * scale(REFERENCE_LOOP_S, before[1], after[1]))
