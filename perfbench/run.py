"""dimer-discord benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is not installed: it
runs from ``src`` on ``PYTHONPATH``, the CLI as ``python -m dimer_discord``.

Untraced (``--trace 0``), the run is a closed loop with one client and one
process at a time, pinned to one CPU so that where the scheduler puts a
process adds no noise.  It sets up (times a fresh ``import dimer_discord``
several times), then repeats whole rotations of the workload's operations
for at least ``--seconds``, checking every output, and reports the
end-to-end metrics.  Run wall time is the time operations were in flight;
the checks between them are not counted.  Every time is scaled to a
reference host speed by calibration probes (see ``speed.py``); the raw
seconds are reported alongside on the lines before the result.

Traced (``--trace 1``), the operations run in this process, once untraced and
once with every package function wrapped, and the run reports per-layer
metrics.  Spans go to ``.perfbench_out/`` in the checkout.

The last line of stdout is the result as one JSON object; lines before it
give the run's metadata, its input shares and each metric in words.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import scalar
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
OP_TIMEOUT_S = 60.0
TRACE_PASSES = 100  # library-scalar passes in a traced run


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "DIMER_DISCORD_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, stderr_path, timeout=OP_TIMEOUT_S):
    """Run one process: (exit code, stdout, stderr, seconds from spawn to stdout EOF, peak RSS MB)."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            stdout = p.stdout.read()
            elapsed = time.perf_counter() - start
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            p.stdout.close()
            if p.returncode is None:
                p.kill()
                p.wait()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return p.returncode, stdout, stderr, elapsed, usage.ru_maxrss / 1024.0


class Spawner:
    """Runs processes one at a time, each between two speed probes, and scales their times.

    Consecutive processes share the probe between them.
    """

    def __init__(self, env, stderr_path):
        self.env, self.stderr_path = env, stderr_path
        self.last_probe = speed.cli_probe(ROOT)

    def __call__(self, argv):
        """``spawn`` plus the time scaled to the reference speed (see ``speed.py``)."""
        code, stdout, stderr, elapsed, rss = spawn(argv, self.env, self.stderr_path)
        before, self.last_probe = self.last_probe, speed.cli_probe(ROOT)
        scaled = elapsed * speed.cli_scale(before, self.last_probe)
        return code, stdout, stderr, elapsed, scaled, rss


def check_package_path(env):
    """The child imports the checkout's src, not an installed copy; also compiles bytecode."""
    code = "import dimer_discord; print(dimer_discord.__file__)"
    p = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                       text=True, timeout=120)
    path = Path(p.stdout.strip()).resolve() if p.returncode == 0 else None
    if path is None or SRC.resolve() not in path.parents:
        raise SystemExit(f"dimer_discord does not import from {SRC}: {p.stderr.strip()[-300:]}")


def setup_seconds(env, scratch):
    """Median raw and scaled seconds of a fresh ``import dimer_discord``."""
    spawner = Spawner(env, scratch)
    runs = [spawner([sys.executable, "-c", "import dimer_discord"]) for _ in range(SETUP_REPS)]
    return statistics.median(r[3] for r in runs), statistics.median(r[4] for r in runs)


def tail(durations):
    """Highest whole percentile with at least ten samples beyond it: (p, value).

    None when that percentile would not reach the median.
    """
    n = len(durations)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(durations)
    return p, ordered[math.ceil(p / 100.0 * n) - 1]


def measure_cli(w, env, seconds, scratch):
    checker = check.Checker()
    raw, scaled, rss, rows, failed, problems, selftest = [], [], 0.0, 0, 0, [], None
    spawner = Spawner(env, scratch)
    start = time.perf_counter()
    while True:  # whole rotations, so every run has the same mix of operations
        for op in w.ops:
            code, stdout, stderr, elapsed, adjusted, peak = spawner(
                [sys.executable, "-m", "dimer_discord", *op.argv])
            raw.append(elapsed)
            scaled.append(adjusted)
            rss = max(rss, peak)
            rows += op.rows
            found = checker(op, code, stdout, stderr)
            if found:
                failed += 1
                problems.append(f"{op.key}: {found[0]}")
            elif selftest is None:
                selftest = check.self_test(op.check, stdout)
        if time.perf_counter() - start >= seconds:
            break
    return raw, scaled, rows, rss, failed, problems, selftest


def measure_library(w, env, seconds, scratch):
    args_path = scratch.with_name("calls.json")
    args_path.write_text(json.dumps(w.calls), encoding="utf-8")
    code, stdout, stderr, _, rss = spawn(
        [sys.executable, str(Path(scalar.__file__).resolve()), str(args_path), str(seconds)],
        env, scratch, timeout=seconds + OP_TIMEOUT_S)
    if code != 0:
        return [], [], 0, rss, 1, [f"library worker exited {code}: {stderr.strip()[-300:]}"], None
    result = json.loads(stdout)
    raw = result["durations"]
    op = w.ops[0]
    first = json.dumps(result["outputs"]).encode("utf-8")
    found = op.check(first)
    failed = len(raw) if found else result["mismatched"]
    problems = [f"pass: {p}" for p in found]
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} passes differ from the first")
    selftest = None if found else check.self_test(op.check, first)
    return raw, result["scaled"], op.rows * len(raw), rss, failed, problems, selftest


def rates(durations, rows, kinds):
    """Throughputs, and the median time of each of a rotation's ``kinds`` operations, averaged.

    A plain median over a mix of operations jumps between kinds as the
    number of whole rotations in a run changes; the per-kind medians do not.
    """
    wall = sum(durations)
    medians = [statistics.median(durations[k::kinds]) for k in range(kinds)] if durations else [0.0]
    return {
        "op_p50_s": statistics.fmean(medians),
        "ops_per_s": len(durations) / wall if wall else 0.0,
        "rows_per_s": rows / wall if wall else 0.0,
    }


def untraced(w, seconds, scratch):
    env = child_env()
    check_package_path(env)
    setup_raw, setup = setup_seconds(env, scratch)
    measure = measure_library if w.name == "library-scalar" else measure_cli
    raw, scaled, rows, rss, failed, problems, selftest = measure(w, env, seconds, scratch)
    kinds = len(w.ops)
    metrics = dict(rates(scaled, rows, kinds), peak_rss_mb=rss, setup_s=setup)
    info = {"ops": len(raw), "run_wall_s": sum(raw),
            "raw": dict(rates(raw, rows, kinds), setup_s=setup_raw),
            "op_tail": tail(scaled), "problems": problems[:10],
            "checker_self_test": "not run" if selftest is None else (selftest or "passed")}
    return metrics, max(1, len(raw)), failed, info


def traced(w, seconds, scratch):
    env = child_env()
    check_package_path(env)
    layer_import, import_errors = tracing.import_layer(sys.executable, env, ROOT)
    sys.path.insert(0, str(SRC))
    import dimer_discord

    if w.name == "library-scalar":
        ops = w.ops * TRACE_PASSES

        def execute(op):
            return 0, json.dumps(scalar.run_pass(dimer_discord, w.calls)).encode("utf-8"), ""
    else:
        ops = w.ops

        def execute(op):
            return tracing.run_cli_inprocess(dimer_discord.cli, op.argv)

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{w.name}.npz"
    metrics, attempted, failed, info = tracing.run(dimer_discord, execute, ops, spans)
    metrics.update(layer_import)
    info["spans"] = str(spans.relative_to(ROOT))
    return metrics, attempted, failed + import_errors, info


def metadata(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "package_path": "src on PYTHONPATH (not installed); CLI as python -m dimer_discord",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dimer_discord" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dimer_discord'}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    meta = metadata(args)
    meta["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["pinned_cpu"]})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = workloads.build(args.workload, args.seed, work)
        run = traced if args.trace else untraced
        metrics, attempted, failed, info = run(w, args.seconds, work / "stderr.txt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    meta.update(info)
    meta["inputs"] = w.shares
    correct = failed == 0 and info["checker_self_test"] == "passed"
    print("# meta " + json.dumps(meta))
    for name, unit in declared.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    for name, value in info.get("raw", {}).items():
        print(f"# raw {name} = {value:.6g} (unscaled)")
    if info.get("op_tail"):
        p, value = info["op_tail"]
        print(f"# op_tail_s = {value:.6g} s (p{p}, N = {info['ops']})")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
