"""Per-layer numbers: the traced run.

The package is imported into this process, and the public functions of its
five modules (``cli``, ``dataio``, ``dimer_core``, ``thermo``,
``numerics``) are replaced by wrappers in every namespace that binds them,
including the names ``cli`` and the package re-export.  A call from one
module into another records a span (function, start, end, parent span,
operation id); a call within a module is only counted, so per-row leaf
calls stay cheap and their time stays in the caller's self time, which
belongs to the same layer.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover.

The sixth layer, ``import``, comes from ``python -X importtime``.
"""

import contextlib
import functools
import inspect
import io
import statistics
import subprocess
import time
from array import array
from collections import Counter

import numpy as np

import check

LAYERS = ("cli", "dataio", "dimer_core", "thermo", "numerics")
IMPORT_REPS = 3


class Tracer:
    def __init__(self):
        self.names, self.layers = [], []
        self.calls, self.self_ns, self.errors = [], [], []
        self.span_fn, self.span_parent, self.span_op = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("q"), array("q")
        self.stack_layer, self.stack_span, self.stack_child = ["bench"], [-1], [0]
        self.op = -1
        self.counts = Counter()

    def install(self, package):
        """Wrap each module's public functions wherever the package binds them."""
        modules = [getattr(package, name) for name in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for namespace in modules + [package]:
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    setattr(namespace, name, wrappers[id(value)])

    def _wrap(self, fn, layer, full_name):
        fid = len(self.names)
        self.names.append(full_name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.errors.append(0)
        inner = self._hook(full_name, fn)
        stack_layer, calls, span = self.stack_layer, self.calls, self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_layer[-1] == layer:
                calls[fid] += 1
                return inner(*args, **kwargs)
            return span(fid, layer, inner, args, kwargs)

        return traced

    def _span(self, fid, layer, fn, args, kwargs):
        self.calls[fid] += 1
        index = len(self.span_fn)
        self.span_fn.append(fid)
        self.span_parent.append(self.stack_span[-1])
        self.span_op.append(self.op)
        self.span_end.append(0)
        self.stack_layer.append(layer)
        self.stack_span.append(index)
        self.stack_child.append(0)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[fid] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self.span_end[index] = end
            self.stack_layer.pop()
            self.stack_span.pop()
            child = self.stack_child.pop()
            self.self_ns[fid] += end - start - child
            self.stack_child[-1] += end - start

    def _hook(self, name, fn):
        """Counters that need a look inside one call: arguments, results or callbacks."""
        counts = self.counts
        if name == "numerics.find_root":
            def hooked(f, *args, **kwargs):
                def counted(x):
                    counts["find_root.f_evals"] += 1
                    return f(x)
                return fn(counted, *args, **kwargs)
        elif name == "numerics.propagate_uncertainty":
            def hooked(f, *args, **kwargs):
                failed = []

                def counted(x):
                    try:
                        return f(x)
                    except ValueError:
                        failed.append(x)
                        raise
                out = fn(counted, *args, **kwargs)
                counts["propagate.one_sided"] += len(failed) == 1
                return out
        elif name == "numerics.fit_bleaney_bowers":
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["fit.evaluations"] += out.evaluations
                return out
        elif name == "dataio.write_results":
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["write_results.bytes"] += len(out)
                return out
        elif name == "thermo.clamp_measured_correlator":
            def hooked(g, *args, **kwargs):
                out = fn(g, *args, **kwargs)
                counts["clamp.warnings"] += bool(out != g)
                return out
        elif name == "cli.build_parser":
            def hooked(*args, **kwargs):
                start = time.perf_counter_ns()
                parser = fn(*args, **kwargs)
                parse = parser.parse_args

                def timed_parse(*a, **kw):
                    t0 = time.perf_counter_ns()
                    try:
                        return parse(*a, **kw)
                    finally:
                        counts["parse_ns"] += time.perf_counter_ns() - t0
                parser.parse_args = timed_parse
                counts["parse_ns"] += time.perf_counter_ns() - start
                return parser
        else:
            return fn
        return hooked

    def metrics(self, rows):
        out = {}
        for layer in LAYERS:
            ids = [i for i, owner in enumerate(self.layers) if owner == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in ids) / 1e9
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        fn = {name: i for i, name in enumerate(self.names)}

        def self_s(name):
            return self.self_ns[fn[name]] / 1e9

        def calls(name):
            return self.calls[fn[name]]

        c = self.counts
        out.update({
            "cli.parse_s": c["parse_ns"] / 1e9,
            "dataio.load_series.self_s": self_s("dataio.load_series"),
            "dataio.write_results.self_s": self_s("dataio.write_results"),
            "dataio.write_results.bytes": c["write_results.bytes"],
            "dataio.result_from_correlator.calls": calls("dataio.result_from_correlator"),
            "dataio.result_from_correlator.self_s": self_s("dataio.result_from_correlator"),
            "dimer_core.validate_correlator.calls_per_row":
                calls("dimer_core.validate_correlator") / rows,
            "dimer_core.measures_from_correlator.calls_per_row":
                calls("dimer_core.measures_from_correlator") / rows,
            "thermo.correlator_from_susceptibility.self_s":
                self_s("thermo.correlator_from_susceptibility"),
            "thermo.correlator_from_specific_heat.self_s":
                self_s("thermo.correlator_from_specific_heat"),
            "thermo.clamp_measured_correlator.warnings": c["clamp.warnings"],
            "numerics.find_root.calls": calls("numerics.find_root"),
            "numerics.find_root.f_evals_per_call":
                c["find_root.f_evals"] / max(1, calls("numerics.find_root")),
            "numerics.propagate_uncertainty.self_s": self_s("numerics.propagate_uncertainty"),
            "numerics.propagate_uncertainty.one_sided": c["propagate.one_sided"],
            "numerics.fit_bleaney_bowers.self_s": self_s("numerics.fit_bleaney_bowers"),
            "numerics.fit_bleaney_bowers.evaluations": c["fit.evaluations"],
            "trace.spans": len(self.span_fn),
        })
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), fn=np.asarray(self.span_fn),
            parent=np.asarray(self.span_parent), op=np.asarray(self.span_op),
            start_ns=np.asarray(self.span_start), end_ns=np.asarray(self.span_end))


def parse_importtime(text):
    """numpy, scipy and own import seconds, module count and total from ``-X importtime``.

    Lines come children first; a module's depth is its indentation.  numpy
    and scipy count once at their outermost entry; the package's own time is
    its cumulative time less the numpy and scipy inside it.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    outer = {"numpy": 0.0, "scipy": 0.0}
    total = modules = 0
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n.split(".")[0] for _, n in stack]
        top = name.split(".")[0]
        if top in outer and not outer.keys() & set(ancestors):
            outer[top] += cumulative
        if top == "dimer_discord" and "dimer_discord" not in ancestors:
            total += cumulative
        if "dimer_discord" in ancestors or top == "dimer_discord":
            modules += 1
        stack.append((depth, name))
    return {
        "import.numpy_s": outer["numpy"],
        "import.scipy_s": outer["scipy"],
        "import.dimer_discord_s": total - outer["numpy"] - outer["scipy"],
        "import.calls": modules,
        "import.self_s": total,
    }


def import_layer(python, env, cwd):
    runs, errors = [], 0
    for _ in range(IMPORT_REPS):
        p = subprocess.run([python, "-X", "importtime", "-c", "import dimer_discord"],
                           env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            errors += 1
            continue
        runs.append(parse_importtime(p.stderr))
    if not runs:
        return {"import.errors": errors}, errors
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["import.errors"] = errors
    return out, errors


def run_cli_inprocess(cli, argv):
    """cli.main(argv) with stdout and stderr captured: (exit code, stdout bytes, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def run(package, execute, ops, out_path):
    """Run ``ops`` once untraced (after a warm-up) and once traced, checking the traced outputs.

    ``execute(op)`` returns (exit code, stdout, stderr).  Returns (metrics,
    attempted, failed, info).
    """
    for op in ops:
        execute(op)
    start = time.perf_counter()
    untraced = [execute(op)[1] for op in ops]
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(package)
    checker = check.Checker()
    failed, problems, selftest = 0, [], None
    traced_s = 0.0
    for i, op in enumerate(ops):
        tracer.op = i
        start = time.perf_counter()
        code, stdout, stderr = execute(op)
        traced_s += time.perf_counter() - start
        found = checker(op, code, stdout, stderr)
        if stdout != untraced[i]:
            found.append("stdout differs between the traced and untraced runs")
        if found:
            failed += 1
            problems.append(f"{op.key}: {found[0]}")
        elif selftest is None:
            selftest = check.self_test(op.check, stdout)
    tracer.save(out_path)
    metrics = tracer.metrics(sum(op.rows for op in ops))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    info = {"ops": len(ops), "problems": problems[:10],
            "checker_self_test": "not run" if selftest is None else (selftest or "passed")}
    return metrics, len(ops), failed, info
