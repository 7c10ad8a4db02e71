"""Differential test of ``dataio.load_series`` against the row-by-row reader it replaced.

:func:`row_reader` is that reader as it was: each line stripped, split and checked in
turn, each field parsed by its own ``float()`` call, the rows sorted with a Python key.
It is the oracle.  Seeded generated files, most with planted faults, go through both,
and the outcome must be the same: the bits of every array, ``units``, and for a refused
file the error class and its text, ``path:line:`` included.

The files cover the three kinds, both normalizations and the ``cm_J_per_mol_K`` tag, and
plant, one or two to a file so that the first must win: rows of the wrong width,
non-numeric cells, ``nan`` and ``inf``, values whose product per dimer overflows,
T <= 0, a negative sigma (a subnormal one that scales to -0.0 included), duplicate
temperatures, a sigma blank on some rows or on all, fields padded with spaces, tabs,
the separators ``\\x1c``-``\\x1f`` (which ``float()`` refuses but ``str.strip()`` removes)
and Unicode spaces, numbers that ``float()`` reads and numpy's reader refuses (``1_0``,
``2_5e-1``, ``١``), and a cell followed by `` # note`` inside a row, which numpy's reader
would take for a comment if it were told that ``#`` starts one.

Run as a script, ``PYTHONPATH=src python tests/test_load_series_differential.py N``
compares N files (seeds 0 to N-1) and prints the count of each outcome.
"""

import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dimer_discord import dataio
from dimer_discord.errors import DataError

TAGS = {
    "susceptibility": (("chi_emu_per_mol",), "sigma_chi"),
    "specific_heat": (("cm_over_R", "cm_J_per_mol_K"), "sigma"),
    "correlator": (("G",), "sigma_G"),
}


def _parse_float(token, path, line_no, column, scale=1.0, sigma=False):
    try:
        v = float(token)
    except ValueError:
        raise DataError(
            f"{path}:{line_no}: column {column!r} has non-numeric value {token!r}"
        ) from None
    product = v * scale
    if not math.isfinite(product):
        if math.isfinite(v):
            raise DataError(
                f"{path}:{line_no}: column {column!r} value {token!r} overflows a double per dimer"
            )
        raise DataError(f"{path}:{line_no}: column {column!r} is not finite")
    if sigma and v < 0.0:
        raise DataError(f"{path}:{line_no}: sigma must be >= 0, got {v:g}")
    return product


def row_reader(path, kind, *, normalization="per_dimer"):
    """The row-by-row ``load_series``: the oracle.  It returns what ``load_series`` returned."""
    if kind not in TAGS:
        raise DataError(f"kind must be one of {tuple(TAGS)}, got {kind!r}")
    if normalization not in ("per_dimer", "per_monomer"):
        raise DataError(f"normalization must be per_dimer or per_monomer, got {normalization!r}")
    if normalization == "per_monomer" and kind == "correlator":
        raise DataError("a correlator has no per-monomer form; it is not extensive")
    accepted, sigma_tag = TAGS[kind]

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc

    lines = enumerate(text.split("\n"), start=1)
    for line_no, line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise DataError(f"{p}: no header line found")
    header = [f.strip() for f in line.split(",")]
    if "T_K" not in header:
        raise DataError(f"{p}:{line_no}: header lacks required column T_K")
    present = [tag for tag in accepted if tag in header]
    if not present:
        raise DataError(f"{p}:{line_no}: header has no {kind} column; expected one of {accepted}")
    value_tag = present[0]
    t_col, v_col = header.index("T_K"), header.index(value_tag)
    s_col = header.index(sigma_tag) if sigma_tag in header else -1
    scale = (1.0 / dataio.R_GAS if value_tag == "cm_J_per_mol_K" else 1.0) * (
        2.0 if normalization == "per_monomer" else 1.0)

    name = str(p)
    rows = []
    for line_no, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(header):
            raise DataError(
                f"{p}:{line_no}: row has {len(fields)} fields, header has {len(header)}"
            )
        t = _parse_float(fields[t_col], name, line_no, "T_K")
        if t <= 0.0:
            raise DataError(f"{p}:{line_no}: temperature must be positive, got {t:g}")
        v = _parse_float(fields[v_col], name, line_no, value_tag, scale)
        s = None
        if s_col >= 0 and fields[s_col] != "":
            s = _parse_float(fields[s_col], name, line_no, sigma_tag, scale, sigma=True)
        rows.append((t, v, s))

    rows.sort(key=lambda r: r[0])
    t_arr = np.array([r[0] for r in rows], dtype=float)
    if t_arr.size > 1 and np.any(np.diff(t_arr) == 0.0):
        dup = float(t_arr[np.flatnonzero(np.diff(t_arr) == 0.0)[0]])
        raise DataError(f"{p}: duplicate temperature {dup:g} K")
    n_sigma = sum(1 for r in rows if r[2] is not None)
    if n_sigma and n_sigma != len(rows):
        raise DataError(f"{p}: sigma present on some rows but not all")
    values = np.array([r[1] for r in rows], dtype=float)
    sigmas = np.array([r[2] for r in rows], dtype=float) if n_sigma else None
    return dataio.MeasurementSeries(kind, t_arr, values, sigmas, units=accepted[0])


# ---------------------------------------------------------------------------
# generated files

PADDING = [" ", "  ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003", "\u3000", "\x0b"]
WORDS = ["oops", "1.2.3", "0x10", "1e", "- 1", "--1", "1,5", "+", "", "\uff11"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "-nan", "1e999", "-1e400"]
HUGE = ["1e308", "-1.5e308", "1.7976931348623157e308", "9e307"]
NON_POSITIVE = ["0", "-0", "-0.0", "-2.5", "-1e-300", "0e5"]
NEGATIVE_SIGMA = ["-0.01", "-1e-323", "-5e-324", "-3", "-0"]
NUMPY_REFUSES = ["1_0", "2_5e-1", "\u0661"]  # float() reads 10.0, 0.25 and 1.0 (an Arabic-Indic 1)
INLINE_COMMENT = " # note"
FAULTS = ["width", "word", "non-finite", "huge", "t<=0", "sigma<0", "duplicate",
          "blank-sigma", "all-blank-sigma", "pad-separator", "comment", "numpy-refuses",
          "inline-comment"]


def _number(rng, lo, hi):
    """A positive number between 10**lo and 10**hi in one of several spellings."""
    x = 10.0 ** rng.uniform(lo, hi)
    form = rng.randrange(6)
    if form == 0:
        return repr(x)
    if form == 1:
        return f"{x:.6g}"
    if form == 2:
        return f"{x:.3e}"
    if form == 3:
        return f"{x:.17g}"
    if form == 4:
        return f"{x:.10f}".rstrip("0")
    return str(max(1, round(x)))


def generate(seed):
    """One file for ``seed``: its text, kind, normalization and header."""
    rng = random.Random(seed)
    kind = rng.choice(list(TAGS))
    normalization = rng.choice(["per_dimer", "per_monomer"])
    if kind == "correlator" and rng.random() < 0.9:
        normalization = "per_dimer"
    accepted, sigma_tag = TAGS[kind]
    header = ["T_K", *rng.sample(accepted, rng.randint(1, len(accepted)))]
    if rng.random() < 0.75:
        header.append(sigma_tag)
    header += rng.sample(["note", "channel", "G", "sigma_G", "chi_emu_per_mol"], rng.randint(0, 2))
    header = list(dict.fromkeys(header))
    rng.shuffle(header)

    n = rng.choice([0, 1, 2, 3, 5, 8, 13, 30])
    temps = rng.sample(range(1, 100_000), n)
    rows = []
    for k in range(n):
        cells = {}
        for tag in header:
            if tag == "T_K":
                cells[tag] = _number(rng, -2, 3) if rng.random() < 0.5 else f"{temps[k] / 100:g}"
            elif tag.startswith("sigma"):
                cells[tag] = _number(rng, -6, 0)
            elif tag in ("note", "channel"):
                cells[tag] = rng.choice(["ok", "neutron", "", "run 7"])
            else:
                x = _number(rng, -4, 2)
                cells[tag] = x if rng.random() < 0.6 else "-" + x
        rows.append(cells)

    sigma = sigma_tag in header
    value_tags = [tag for tag in header if tag not in ("T_K", "note", "channel", sigma_tag)]
    for fault in rng.choices(FAULTS, k=rng.choice([0, 1, 1, 1, 2, 2, 3])):
        if not rows:
            break
        cells = rng.choice(rows)
        column = rng.choice(header)
        if fault == "width":
            cells["_width"] = rng.choice([-1, 1, 2])
        elif fault == "word":
            cells[column] = rng.choice(WORDS)
        elif fault == "non-finite":
            cells[column] = rng.choice(NON_FINITE)
        elif fault == "huge":
            cells[rng.choice(value_tags + [sigma_tag] * sigma)] = rng.choice(HUGE)
        elif fault == "t<=0":
            cells["T_K"] = rng.choice(NON_POSITIVE)
        elif fault == "sigma<0" and sigma:
            cells[sigma_tag] = rng.choice(NEGATIVE_SIGMA)
        elif fault == "duplicate" and len(rows) > 1:  # another row's T, spelled alike or not
            cells["T_K"] = rng.choice(["", "+", " ", "0"]) + rng.choice(rows)["T_K"]
        elif fault == "blank-sigma" and sigma:
            cells[sigma_tag] = rng.choice(["", " ", "\x1c", "\xa0 "])
        elif fault == "all-blank-sigma" and sigma:
            for other in rows:
                other[sigma_tag] = rng.choice(["", "", " ", "\t"])
        elif fault == "pad-separator":
            cells[column] = rng.choice("\x1c\x1d\x1e\x1f") + cells[column] + rng.choice(
                ["", "\x1f", " \x1e"])
        elif fault == "comment":
            cells["_comment"] = True
        elif fault == "numpy-refuses":
            cells[column] = rng.choice(NUMPY_REFUSES)
        elif fault == "inline-comment":
            cells[column] += INLINE_COMMENT
    if rng.random() < 0.3:
        for cells in rows:
            for tag in header:
                if rng.random() < 0.3:
                    cells[tag] = rng.choice(PADDING) + cells[tag] + rng.choice(PADDING)

    lines = [rng.choice(["# seeded series", "", "   ", "# T in K"]) for _ in range(rng.randint(0, 2))]
    lines.append(rng.choice(["", " "]) + rng.choice([",", ", ", " ,"]).join(header))
    for cells in rows:
        fields = [cells[tag] for tag in header]
        width = cells.get("_width", 0)
        fields = fields[:width] if width < 0 else fields + ["1.0"] * width
        line = ",".join(fields)
        if cells.get("_comment"):
            line = "#" + line
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "# note", "\t# indented note"]))
    end = "\r\n" if rng.random() < 0.2 else "\n"
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    if rng.random() < 0.1:
        text = "\ufeff" + text
    return text, kind, normalization, header


def outcome(read, path, kind, normalization):
    """What ``read`` makes of the file: the arrays' bits, kind and units, or the error."""
    try:
        s = read(path, kind, normalization=normalization)
    except Exception as exc:  # any class: one that is no DataError must show too
        return "error", type(exc), str(exc)
    arrays = [s.temperatures, s.values] + ([] if s.sigmas is None else [s.sigmas])
    return ("ok", s.kind, s.units, s.sigmas is None,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def _refusal(text):
    """An error text without its path, line, column names and numbers."""
    return re.sub(r"'[^']*'|-?\d[\w.+-]*", "_", text.rsplit(": ", 1)[-1] if ".csv" in text else text)


def compare(seeds, directory):
    """Load each seed's file with both readers; the count of each outcome, by its kind."""
    counts = Counter()
    for seed in seeds:
        text, kind, normalization, _ = generate(seed)
        path = Path(directory) / f"series_{seed}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(row_reader, path, kind, normalization)
        assert outcome(dataio.load_series, path, kind, normalization) == expected, (seed, text)
        counts[expected[0] if expected[0] == "ok" else _refusal(expected[2])] += 1
        path.unlink()
    return counts


@pytest.mark.parametrize("block", range(6))
def test_the_column_reader_matches_the_row_reader(tmp_path, block):
    counts = compare(range(block * 100, block * 100 + 100), tmp_path)
    assert counts["ok"] and sum(counts.values()) - counts["ok"]  # both outcomes are drawn


REFUSALS = ["row has", "non-numeric", "is not finite", "overflows", "must be positive",
            "sigma must be >= 0, got -9.88131e-324", "sigma must be", "duplicate", "some rows",
            "per-monomer"]


def test_the_files_plant_every_fault(tmp_path):
    # the generator reaches each refusal, and files that load only through the stripped fields
    seen = Counter()
    for seed in range(600):
        text, kind, normalization, header = generate(seed)
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8", newline="")
        result = outcome(row_reader, path, kind, normalization)
        seen.update(token for token in NUMPY_REFUSES if token in text)
        seen[INLINE_COMMENT] += re.search(r"\S" + INLINE_COMMENT, text) is not None
        if result[0] == "ok":
            seen["loads"] += 1
            seen["loads padded with \\x1c-\\x1f"] += any(c in text for c in "\x1c\x1d\x1e\x1f")
            seen["loads a blank sigma column"] += result[3] and TAGS[kind][1] in header
            seen["loads a number numpy refuses"] += any(token in text for token in NUMPY_REFUSES)
        else:
            seen.update(what for what in REFUSALS if what in result[2])
    for what in ["loads", "loads padded with \\x1c-\\x1f", "loads a blank sigma column",
                 "loads a number numpy refuses", *NUMPY_REFUSES, INLINE_COMMENT, *REFUSALS]:
        assert seen[what], what


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        total = compare(range(int(sys.argv[1])), directory)
    print(sum(total.values()), "files, each the same outcome from both readers:")
    for what, count in total.most_common():
        print(f"  {count:6d}  {what}")
