"""Output checks.  Each returns a list of problems; an empty list is a pass.

A check compares what the program printed with values the benchmark
computed itself (``reference``), at the printed precision, and fails on a
missing, extra or reordered row as well as on a wrong number.
"""

import hashlib
import json
import re

import numpy as np

import reference as ref

RESULT_COLUMNS = ("T_K", "G", "sigma_G", "Q", "sigma_Q", "C", "I", "E")
_ROW_ERROR = re.compile(r"^row (\d+) \(T = ", re.MULTILINE)
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")


def _compare(label, printed, expected, **tol):
    printed = np.asarray(printed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if printed.shape != expected.shape:
        return [f"{label}: {printed.size} values, expected {expected.size}"]
    bad = np.flatnonzero(~ref.within(printed, expected, **tol))
    if bad.size:
        k = int(bad[0])
        return [f"{label}: {bad.size} value(s) off, first at index {k}: "
                f"printed {printed.flat[k]!r}, expected {expected.flat[k]!r}"]
    return []


def _csv_block(lines, n_columns):
    """Numeric rows of a CSV body as a 2-d string array, or None if ragged."""
    if not lines:
        return np.empty((0, n_columns), dtype=str)
    fields = ",".join(lines).split(",")
    if len(fields) != len(lines) * n_columns:
        return None
    return np.array(fields).reshape(len(lines), n_columns)


def result_table(stdout, fmt, expected, channel, preset=None):
    """Records from ``write_results``: CSV or JSON, one row per accepted input row."""
    n = expected["T_K"].size
    text = stdout.decode("utf-8")
    if fmt == "csv":
        lines = text.split("\n")
        if lines[0] != ",".join(RESULT_COLUMNS + ("channel",)) or lines[-1] != "":
            return ["csv: unexpected header or missing final newline"]
        block = _csv_block(lines[1:-1], len(RESULT_COLUMNS) + 1)
        if block is None:
            return ["csv: ragged rows"]
        if block.shape[0] != n:
            return [f"csv: {block.shape[0]} rows, expected {n}"]
        if np.any(block[:, -1] != channel):
            return ["csv: wrong channel column"]
        try:
            numbers = block[:, :-1].astype(float)
        except ValueError:
            return ["csv: non-numeric field"]
        columns = {c: numbers[:, k] for k, c in enumerate(RESULT_COLUMNS)}
    else:
        try:
            doc = json.loads(text)
        except ValueError:
            return ["json: does not parse"]
        meta = {"channel": channel, "preset": preset,
                "units": {"T_K": "kelvin", "G": "dimensionless", "correlations": "bit"}}
        if list(doc) != ["meta", "rows"] or doc["meta"] != meta:
            return ["json: unexpected layout or meta"]
        rows = doc["rows"]
        if len(rows) != n:
            return [f"json: {len(rows)} rows, expected {n}"]
        if any(list(r) != list(RESULT_COLUMNS) for r in rows):
            return ["json: unexpected row keys"]
        columns = {c: np.array([r[c] for r in rows], dtype=float) for c in RESULT_COLUMNS}
    problems = []
    for c in RESULT_COLUMNS:
        problems += _compare(c, columns[c], expected[c])
    return problems


def rejected_rows(stderr, status):
    """Every row the program must reject is reported by its 1-based number, and no other."""
    reported = sorted(int(m) for m in _ROW_ERROR.findall(stderr))
    expected = (np.flatnonzero(status == ref.REJECTED) + 1).tolist()
    if reported != expected:
        missing = sorted(set(expected) - set(reported))[:5]
        extra = sorted(set(reported) - set(expected))[:5]
        return [f"rejected rows: {len(reported)} reported, {len(expected)} expected "
                f"(missing {missing}, unexpected {extra})"]
    return []


def figure(stdout, fig_id, title, columns, expected):
    lines = stdout.decode("utf-8").split("\n")
    if lines[:2] != [f"# figure {fig_id}: {title}", ",".join(columns)] or lines[-1] != "":
        return ["figure: unexpected title or header"]
    block = _csv_block(lines[2:-1], len(columns))
    if block is None:
        return ["figure: ragged rows"]
    try:
        numbers = block.astype(float)
    except ValueError:
        return ["figure: non-numeric field"]
    problems = []
    for k, c in enumerate(columns):
        problems += _compare(c, numbers[:, k], expected[k])
    return problems


def key_values(stdout, expected, tolerances=None):
    """``key = value`` lines, in order; numbers compared, words matched exactly."""
    tolerances = tolerances or {}
    lines = stdout.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["key/value: missing final newline"]
    lines = lines[:-1]
    keys = [line.partition(" = ")[0] for line in lines]
    if keys != [k for k, _ in expected]:
        return [f"key/value: keys {keys}, expected {[k for k, _ in expected]}"]
    problems = []
    for line, (key, want) in zip(lines, expected):
        got = line.partition(" = ")[2]
        if isinstance(want, str):
            if got != want:
                problems.append(f"{key}: printed {got!r}, expected {want!r}")
            continue
        try:
            value = float(got)
        except ValueError:
            problems.append(f"{key}: non-numeric {got!r}")
            continue
        problems += _compare(key, [value], [want], **tolerances.get(key, {}))
    return problems


def fit_report(stdout, expected):
    """The text report of ``fit``: fitted parameters, then one row per input row.

    The fitted values are an optimum, not a closed form: J, g and the model
    rows may lie as far from the benchmark's own optimum as points whose
    cost no float64 minimizer can tell from the minimum
    (``reference.fit_tolerance``).  The residual norm, the input columns and
    chi_model - chi are checked at the printed precision.
    """
    text = stdout.decode("utf-8")
    head, sep, body = text.partition("T_K,chi_emu_per_mol,chi_model,residual\n")
    if not sep:
        return ["fit: no table header"]
    head_lines = head.split("\n")[:-1]
    evaluations = head_lines[5].partition(" = ")[2] if len(head_lines) == 7 else ""
    if not evaluations.isdigit() or int(evaluations) < 1:
        return [f"fit: evaluations {evaluations!r} is not a positive count"]
    keys = [("converged", "true"), ("J_over_kB_K", expected["j"]),
            ("twoJ_over_kB_K", 2.0 * expected["j"]), ("g_factor", expected["g"]),
            ("residual_norm", expected["residual_norm"]), ("evaluations", evaluations),
            ("n_points", str(expected["t"].size))]
    tolerances = {"J_over_kB_K": {"atol": expected["tol_j"]},
                  "twoJ_over_kB_K": {"atol": 2.0 * expected["tol_j"]},
                  "g_factor": {"atol": expected["tol_g"]}}
    problems = key_values(head.encode(), keys, tolerances)
    lines = body.split("\n")
    if lines[-1] != "":
        return problems + ["fit: missing final newline"]
    block = _csv_block(lines[:-1], 4)
    if block is None:
        return problems + ["fit: ragged rows"]
    try:
        numbers = block.astype(float)
    except ValueError:
        return problems + ["fit: non-numeric field"]
    if numbers.shape[0] != expected["t"].size:
        return problems + [f"fit: {numbers.shape[0]} rows, expected {expected['t'].size}"]
    chi = expected["chi"]
    problems += _compare("T_K", numbers[:, 0], expected["t"])
    problems += _compare("chi_emu_per_mol", numbers[:, 1], chi)
    tol_rows = expected["tol_rows"]
    problems += _compare("chi_model", numbers[:, 2], expected["chi_model"], atol=tol_rows)
    residual_ok = ref.within(numbers[:, 3], expected["chi_model"] - chi, rtol=0.0,
                             atol=tol_rows + 1e-9 * np.abs(chi))
    if not residual_ok.all():
        problems.append(f"residual: {int(np.sum(~residual_ok))} value(s) off")
    return problems


def values(outputs, expected, rtol):
    """Full-precision numbers from library calls, against references within rtol."""
    return _compare("outputs", outputs, expected, precision=17, rtol=rtol, atol=1e-15)


class Checker:
    """Runs an operation's check once per distinct output; repeats must match byte for byte."""

    def __init__(self):
        self._digests = {}

    def __call__(self, op, code, stdout, stderr):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if op.status is not None:
            problems += rejected_rows(stderr, op.status)
        for needle in op.stderr_has:
            if needle not in stderr:
                problems.append(f"stderr lacks {needle!r}")
        digest = hashlib.sha256(stdout).hexdigest()
        seen = self._digests.get(op.key)
        if seen is None:
            problems += op.check(stdout)
            self._digests[op.key] = digest
        elif seen != digest:
            problems.append("stdout differs from an earlier run of the same invocation")
        return problems


def corrupt_digit(stdout):
    """The output with one digit of its first number changed (its 6th significant, or last)."""
    text = stdout.decode("utf-8")
    m = _NUMBER.search(text)
    mantissa = re.split(r"[eE]", m.group(0))[0]
    positions = [m.start() + i for i, ch in enumerate(mantissa) if ch.isdigit()]
    first_nonzero = next((i for i, p in enumerate(positions) if text[p] != "0"), 0)
    significant = positions[first_nonzero:]
    p = significant[min(5, len(significant) - 1)]
    wrong = str((int(text[p]) + 5) % 10)
    return (text[:p] + wrong + text[p + 1:]).encode("utf-8")


def drop_row(stdout):
    """The output with one row removed: a JSON row or list element, else a line holding a number."""
    text = stdout.decode("utf-8")
    if text[:1] in "{[":
        doc = json.loads(text)
        rows = doc["rows"] if isinstance(doc, dict) else doc
        del rows[len(rows) // 2]
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    lines = text.split("\n")
    numbered = [i for i, line in enumerate(lines) if _NUMBER.search(line)]
    del lines[numbered[len(numbered) // 2]]
    return "\n".join(lines).encode("utf-8")


def self_test(check, stdout):
    """Problems with the checker itself: each corrupted copy of a good output must fail."""
    problems = []
    if check(stdout):
        problems.append("checker rejects the output the self-test starts from")
    if not check(corrupt_digit(stdout)):
        problems.append("checker accepts an output with one wrong digit")
    if not check(drop_row(stdout)):
        problems.append("checker accepts an output with a dropped row")
    return problems
