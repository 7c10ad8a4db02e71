"""File ingestion, material presets, and result serialization.

CSV files are UTF-8 (a leading byte-order mark is skipped), ``#`` starts a
comment line, a header line is required, and columns are picked out by name
(extra columns are ignored, which lets result files round-trip as
correlator input):

* susceptibility:  ``T_K,chi_emu_per_mol[,sigma_chi]``   (emu/mol, CGS)
* specific heat:   ``T_K,cm_over_R[,sigma]``  (dimensionless; the unit tag
  ``cm_J_per_mol_K`` is also accepted and divided by R on load)
* correlator:      ``T_K,G[,sigma_G]``

Everything is normalized on load: rows sorted by temperature, per-monomer
values doubled to per-dimer (susceptibility and specific heat are
extensive; a correlator is not and refuses the flag), J/(mol K) converted
to multiples of R.  Downstream code therefore only ever sees per-dimer,
per-R series.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from . import thermo
from .dimer_core import (
    CODATA, G_MAX, G_MIN, DimerParameters, FloatOrArray, _G_TOL, _check_each, _clip, _information,
    _is_array, _measures, _numpy, _real, _temperature, _temperatures, validate_correlator,
)
from .errors import DataError, DataWarning, DomainError, InconsistencyError, PropagationWarning
from .numerics import (
    _CLAMPED, _DROPPED, _ENDPOINT_CLAMPED, _NAN, _OF_Q, _ONE_SIDED, _OUT_OF_BAND, _REFUSED,
    _UNDEFINED, _UNDEFINED_TEXT, ValueWithUncertainty, _one_sided_text, _secant_column,
)

__all__ = [
    "R_GAS",
    "MeasurementSeries",
    "MaterialPreset",
    "PRESETS",
    "preset",
    "ResultRecord",
    "ResultTable",
    "result_from_correlator",
    "results_from_correlators",
    "load_series",
    "write_results",
    "cell_formatter",
    "text_table",
    "json_text",
    "parse_value_with_uncertainty",
]

R_GAS = CODATA.gas_constant  # J/(mol K), exact; converts cm_J_per_mol_K columns

_CHANNELS = ("neutron", "calorimetric", "magnetometric", "theory")

# per series kind: the value-column tags accepted, the first canonical, and the sigma tag
_TAGS = {
    "susceptibility": (("chi_emu_per_mol",), "sigma_chi"),
    "specific_heat": (("cm_over_R", "cm_J_per_mol_K"), "sigma"),
    "correlator": (("G",), "sigma_G"),
}


class MeasurementSeries:
    """One experimental curve, already normalized per mole of dimers; its
    ``len()`` is its number of rows, and it equals only itself."""

    __slots__ = ("kind", "temperatures", "values", "sigmas", "units")

    def __init__(self, kind: str, temperatures: np.ndarray, values: np.ndarray,
                 sigmas: np.ndarray | None, units: str):
        self.kind, self.temperatures, self.values = kind, temperatures, values
        self.sigmas, self.units = sigmas, units

    def __len__(self) -> int:
        return int(self.temperatures.size)


class MaterialPreset(NamedTuple):
    """Fitted parameters for a material, as published."""

    name: str
    j_over_kb: float
    g_factor: float | None
    note: str

    @property
    def parameters(self) -> DimerParameters:
        return DimerParameters(self.j_over_kb, self.g_factor)


PRESETS = {
    p.name: p
    for p in (
        MaterialPreset(
            "copper-nitrate-calorimetric",
            -2.59,
            None,
            "Cu(NO3)2 . 2.5 H2O, coupling from low-temperature calorimetry",
        ),
        MaterialPreset(
            "copper-nitrate-magnetometric",
            -2.56,
            2.11,
            "Cu(NO3)2 . 2.5 H2O, coupling and g from susceptibility",
        ),
        MaterialPreset(
            "copper-acetate-hydrate",
            -204.0,
            2.13,
            "Cu2(CH3COO)4 . 2 H2O, strongly coupled dimer",
        ),
        MaterialPreset(
            "copper-acetate-anhydrous",
            -216.0,
            2.17,
            "anhydrous Cu2(CH3COO)4",
        ),
        MaterialPreset(
            "cu2l-oac-ferro",
            35.4,
            2.13,
            "[Cu2L(OAc)] . 6 H2O, ferromagnetically coupled pair",
        ),
    )
}


def preset(name: str) -> MaterialPreset:
    """Look up a material preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise DataError(f"unknown preset {name!r}; available: {known}") from None


class ResultRecord(NamedTuple):
    """One point: a correlator and everything derived from it, as
    :func:`result_from_correlator` gives it (``t`` is a temperature, stored as a float, or
    None for a correlator given without one)."""

    t: float | None
    correlator: ValueWithUncertainty
    discord: ValueWithUncertainty
    classical: float
    mutual_information: float
    entanglement: float
    channel: str


# a table column: a float array, or any sequence of cells
Column = "np.ndarray | Sequence[object]"


class ResultTable(NamedTuple):
    """Output rows held as columns, in the order of the CSV header: float
    arrays, or sequences whose ``t`` may hold None (no temperature).
    :func:`write_results` checks every row: a positive temperature or None,
    real numbers in the float columns, a known channel, and Q = I - C."""

    t: Column
    correlator: Column
    sigma_correlator: Column
    discord: Column
    sigma_discord: Column
    classical: Column
    mutual_information: Column
    entanglement: Column
    channel: Sequence[str]


def _check_channels(channels: Iterable[object]) -> None:
    try:
        channels = dict.fromkeys(channels)  # each distinct cell once
    except TypeError:  # an unhashable cell is no channel: read every cell
        pass
    for channel in channels:
        if not (isinstance(channel, str) and channel in _CHANNELS):
            raise DataError(f"channel must be one of {_CHANNELS}, got {channel!r}")


def _check_table(table: ResultTable) -> ResultTable:
    """The table as it is written: each number column read as an input is, an array by
    :func:`_check_each` and a cell by :func:`_real`; ``t`` first, as
    :func:`result_from_correlator` reads it, by the temperature rule with None kept."""
    if not isinstance(table, ResultTable):
        raise DataError(f"write_results takes a ResultTable, got {type(table).__name__}")
    for name, column in zip(table._fields, table):
        if getattr(column, "ndim", 1) != 1 or not hasattr(column, "__len__"):
            got = f"shape {column.shape}" if hasattr(column, "shape") else type(column).__name__
            raise DataError(f"result column {name!r} must be a sequence or a 1-d array, got {got}")
    if len({len(column) for column in table}) > 1:
        raise DataError("result columns differ in length")
    floats = {"t": _temperatures(table.t) if _is_array(table.t)
              else [t if t is None else _temperature(t) for t in table.t]}
    for name, column in zip(table._fields[1:-1], table[1:-1]):
        floats[name] = (_check_each(name, column) if _is_array(column)
                        else [_real(name, x) for x in column])
    _check_channels(table.channel)
    q, i, c = floats["discord"], floats["mutual_information"], floats["classical"]
    if any(map(_is_array, (q, i, c))):
        q, i, c = (_numpy().asarray(x, dtype=float) for x in (q, i, c))
        inconsistent = (abs(q - (i - c)) > 1e-12).any()
    else:
        inconsistent = any(abs(qr - (ir - cr)) > 1e-12 for qr, ir, cr in zip(q, i, c))
    if inconsistent:
        raise InconsistencyError(
            "discord does not equal mutual information minus classical correlation"
        )
    return table._replace(**floats)


def result_from_correlator(t: float | None, g: ValueWithUncertainty, channel: str) -> ResultRecord:
    """Expand a measured correlator (with its error bar) into a full record, as
    ``from-neutron --G`` does: a correlator past [-1, 1/3] by at most 0.01 is clamped with a
    :class:`DataWarning` (further out, :class:`InconsistencyError`), and sigma_Q is the
    secant of sigma_G, taken one-sided with a warning where an end leaves the band."""
    if not isinstance(g, ValueWithUncertainty):
        raise DomainError(f"result_from_correlator takes a ValueWithUncertainty, got {g!r}")
    t, g, sigma_g, q, sigma_q, c, i, e, channel = _point_result(t, g.value, g.sigma, channel)
    return ResultRecord(
        t, ValueWithUncertainty(g, sigma_g), ValueWithUncertainty(q, sigma_q), c, i, e, channel
    )


def _point_result(t: float | None, value: float, sigma: float, channel: str) -> tuple:
    """The one row, in the order of :class:`ResultTable`, of a measured correlator ``value``
    with its ``sigma``, from :func:`_measured_results`: a point it would drop raises its
    remark, and a kept point that it flags warns it."""
    t = t if t is None else _temperature(t)
    _check_channels((channel,))
    row, remarks = _measured_results(t, value, sigma, channel)
    for _, kind, text in remarks:  # one at most
        if not issubclass(kind, Warning):
            raise kind(text)
        warnings.warn(text, kind, stacklevel=3)
    return row


def results_from_correlators(t: Column, g: Column, channel: str) -> ResultTable:
    """Expand exact correlators (no error bars, none clamped) at temperatures ``t`` into a
    table of float arrays, a whole column at once (a 0-d one is one row).  A ``t`` that
    holds None (a row without a temperature) is kept as it is.  ``g`` is read as
    ``validate_correlator`` reads it, its band after ``t``: a G within 1e-9 past an end of
    [-1, 1/3] is that end, in its column as in its measures."""
    _check_channels((channel,))
    np = _numpy()
    g = _check_each("correlator", np.atleast_1d(g))
    t = t if isinstance(t, Sequence) and None in t else _temperatures(np.atleast_1d(t))
    return _exact_results(t, validate_correlator(g), channel)


def _exact_results(t: Column | float, g: FloatOrArray, channel: str) -> ResultTable | tuple:
    """The table of exact correlators ``g`` already in [-1, 1/3] at temperatures ``t``, or a
    float point's one row as a flat tuple in the table's order; nothing is read again."""
    m = _measures(g)
    array = _is_array(g)
    zero = _numpy().zeros_like(g) if array else 0.0
    row = (t, g, zero, m.discord, zero, m.classical, m.mutual_information, m.entanglement)
    return ResultTable(*row, [channel] * len(g)) if array else (*row, channel)


def _discord_column(g: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    # the discord where validate_correlator takes g (clipped into the band: not read again)
    refused = (g < G_MIN - _G_TOL) | (g > G_MAX + _G_TOL)
    i, c = _information(_clip(g, G_MIN, G_MAX))
    return i - c, _OUT_OF_BAND * refused


def _measured_results(
    t: Column | float | None, measured: FloatOrArray, sigma: FloatOrArray, channel: str,
    g_factor: float | None = None,
) -> tuple[ResultTable | tuple, list[tuple[int, type, str]]]:
    """Measured values and their sigmas, columns or one float point, in one pass to the
    table of the rows kept (a dropped row is left out), or a point's one row as a flat tuple
    in the table's order, and a remark ``(index, class, text)`` per flagged row: what the
    scalar functions raise or warn of, from :func:`_remark`.

    The values are correlators with sigma_G, or with a ``g_factor`` a chi
    column, inverted as ``correlator_from_susceptibility`` does, and sigma_G
    that inversion's secant.  The correlators are clamped as
    ``clamp_measured_correlator`` does; sigma_Q is the discord's secant.
    """
    raw = measured if g_factor is None else thermo._chi_column(g_factor, measured, t)
    g, status = thermo._clamp_column(raw)
    if g_factor is None:
        sigma_g = sigma
    else:
        sigma_g, flags = _secant_column(
            lambda x: thermo._clamp_column(thermo._chi_column(g_factor, x, t)), g, measured, sigma
        )
        status |= flags
    m = _measures(g)  # g is clamped into [-1, 1/3]
    sigma_q, flags = _secant_column(_discord_column, m.discord, g, sigma_g)
    status |= flags * _OF_Q
    columns = (t, g, sigma_g, m.discord, sigma_q, m.classical, m.mutual_information, m.entanglement)
    rows = (t, measured, sigma, raw, g, sigma_g, status)
    if _is_array(g):
        flagged = status.nonzero()[0].tolist()
        rows = zip(flagged, *[column[flagged].tolist() for column in rows])
        kept = (status & _DROPPED) == 0
        columns = [column[kept] for column in columns]
        result = ResultTable(*columns, [channel] * len(columns[1]))
    else:  # an unflagged point builds no remark
        rows = [(0, *rows)] if status else ()
        result = (*columns, channel)
    return result, [(i, *_remark(channel, g_factor is not None, *r)) for i, *r in rows]


def _remark(
    channel: str, chi: bool, t, value, sigma, raw, g, sigma_g, status: int
) -> tuple[type, str]:
    """The class and text of what the scalar functions raise or warn of for a row with these
    values (a susceptibility if ``chi``, else a correlator) and status bits: a dropped row's
    first cause, or a kept row's remarks in one text."""
    if status & _NAN:
        return DomainError, f"{thermo._CHI_NAME} must {thermo._CHI_RULE}, got {value!r}"
    # the source of the correlator, as a clamp or refusal names it
    source = thermo._CHI_SOURCE.format(value, t) if chi else f"{channel} point"
    if status & _REFUSED:
        return InconsistencyError, thermo._correlator_text(source, raw, status)
    for bits, x, s in ((status, value, sigma), (status // _OF_Q, g, sigma_g)):
        if bits & _UNDEFINED:
            return DomainError, _UNDEFINED_TEXT.format(x - s, x + s)
    remarks = [thermo._correlator_text(source, raw, status)] if status & _CLAMPED else []
    if status & _ENDPOINT_CLAMPED:
        remarks.append("a sigma_G endpoint clamped into [-1, 1/3]")
    for name, bits in (("sigma_G", status), ("sigma_Q", status // _OF_Q)):
        if bits & _ONE_SIDED:
            remarks.append(_one_sided_text(bits, name))
    kind = DataWarning if status & (_CLAMPED | _ENDPOINT_CLAMPED) else PropagationWarning
    return kind, "; ".join(remarks)


# ---------------------------------------------------------------------------
# reading


def _parse_float(
    token: str, path: str, line_no: int, column: str, scale: float = 1.0, sigma: bool = False
) -> float:
    """``token`` as a float times ``scale``, the product finite; a ``sigma`` must be >= 0."""
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
    if sigma and v < 0.0:  # the file's value: a tiny one may scale to -0.0
        raise DataError(f"{path}:{line_no}: sigma must be >= 0, got {v:g}")
    return product


def _float_columns(
    rows: list[str], width: int, usecols: tuple[int, ...], scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The T and value columns of ``rows`` (stripped lines), and the sigma column if
    ``usecols`` names a third, each read whole by numpy's reader, per dimer; None where a
    row's width, a cell that numpy refuses (a blank one among them) or a rule fails."""
    np = _numpy()
    if not rows:  # numpy warns of a file without rows
        return np.empty(0), np.empty(0), np.empty(0)
    if not set(map(str.count, rows, repeat(","))) <= {width - 1}:  # numpy reads usecols only
        return None
    try:  # comments=None: a "#" inside a row is a fault, not the start of a comment
        t, v, *s = np.loadtxt(rows, float, delimiter=",", comments=None, usecols=usecols,
                              ndmin=2, unpack=True)
    except ValueError:
        return None
    s = s[0] if s else np.empty(0)
    with np.errstate(over="ignore"):  # a product past the largest double is inf, refused
        v, s_per_dimer = v * scale, s * scale
    if (((t > 0.0) & (t < math.inf)).all() and np.isfinite(v).all()
            and ((s >= 0.0) & (s_per_dimer < math.inf)).all()):  # the file's sigma >= 0
        return t, v, s_per_dimer
    return None


def load_series(
    path: str | Path, kind: str, *, normalization: str = "per_dimer"
) -> MeasurementSeries:
    """Read one measured curve from a CSV file.

    Parameters
    ----------
    path : str or Path
        File in the schema described in the module docstring.
    kind : {"susceptibility", "specific_heat", "correlator"}
        Which curve the file holds; decides the value column looked for.
        The first accepted tag the header carries is read (``cm_over_R``
        before ``cm_J_per_mol_K``); the series' ``units`` is the kind's
        first tag, the one its values are in.
    normalization : {"per_dimer", "per_monomer"}
        How the file is normalized.  Per-monomer values (and sigmas) are
        doubled on load; temperatures are never touched.  A correlator is
        a per-bond quantity, so ``per_monomer`` is rejected for it.
    """
    if kind not in _TAGS:
        raise DataError(f"kind must be one of {tuple(_TAGS)}, got {kind!r}")
    if normalization not in ("per_dimer", "per_monomer"):
        raise DataError(f"normalization must be per_dimer or per_monomer, got {normalization!r}")
    if normalization == "per_monomer" and kind == "correlator":
        raise DataError("a correlator has no per-monomer form; it is not extensive")
    accepted, sigma_tag = _TAGS[kind]

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc

    # the header is the first line that is neither blank nor a comment; the rows follow it
    lines = text.split("\n")  # read_text made every end "\n"
    for line_no, line in enumerate(lines, 1):
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
    # the factor that takes a value or sigma to per dimer, per R
    scale = (1.0 / R_GAS if value_tag == "cm_J_per_mol_K" else 1.0) * (
        2.0 if normalization == "per_monomer" else 1.0)

    width, lines = len(header), lines[line_no:]
    columns = _float_columns(
        [line for line in map(str.strip, lines) if line and line[0] != "#"], width,
        (t_col, v_col, s_col) if s_col >= 0 else (t_col, v_col), scale,
    )
    if columns is None:  # read the rows one by one: the first fault raises, or they all load
        name, t, values, sigmas = str(p), [], [], []  # the name once per file, not per field
        for line_no, line in enumerate(lines, line_no + 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != width:
                raise DataError(f"{p}:{line_no}: row has {len(fields)} fields, header has {width}")
            t.append(_parse_float(fields[t_col], name, line_no, "T_K"))
            if t[-1] <= 0.0:
                raise DataError(f"{p}:{line_no}: temperature must be positive, got {t[-1]:g}")
            values.append(_parse_float(fields[v_col], name, line_no, value_tag, scale))
            if s_col >= 0 and fields[s_col] != "":  # a blank sigma is none
                sigmas.append(_parse_float(fields[s_col], name, line_no, sigma_tag, scale, True))
        columns = [_numpy().array(column, float) for column in (t, values, sigmas)]
    t, values, sigmas = columns
    order = t.argsort(kind="stable")
    t = t[order]
    same = _numpy().flatnonzero(t[1:] == t[:-1])
    if same.size:
        raise DataError(f"{p}: duplicate temperature {float(t[same[0]]):g} K")
    if sigmas.size and sigmas.size != t.size:
        raise DataError(f"{p}: sigma present on some rows but not all")
    sigmas = sigmas[order] if sigmas.size else None
    return MeasurementSeries(kind, t, values[order], sigmas, units=accepted[0])


# ---------------------------------------------------------------------------
# writing: one cell formatter and one row template per block serve every output


def _number_spec(precision: int) -> str:
    if precision < 1 or precision > 17:
        raise DomainError(f"precision must be in [1, 17], got {precision}")
    return f"%.{precision}g"


def cell_formatter(precision: int) -> Callable[[object], str]:
    """Formatter for one output cell, its format string built once: strings
    as they are, None as an empty field, booleans as ``true``/``false``,
    integers in full, other numbers with ``precision`` significant digits."""
    number = _number_spec(precision).__mod__

    def cell(x: object) -> str:
        if isinstance(x, float):
            return number(x)
        if isinstance(x, str):
            return x
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        return number(x)

    return cell


_BLOCK_ROWS = 4096  # rows formatted at a time: only one block's cells are alive

# a column block's field in its row template: a % field and the values that fill it, or a
# literal (its % escaped) and None
Field = "tuple[str, Iterable[object] | None]"


def _literal(text: str) -> Field:
    return text.replace("%", "%%"), None


def _constant(block: Column) -> bool:
    """Whether a column block holds one value: floats all ``==`` the first and of its sign
    bit (-0.0 stands apart from 0.0, and a NaN never holds), or strings all equal."""
    if _is_array(block):
        first, np = block[0], _numpy()
        return bool((block == first).all() and (np.signbit(block) == np.signbit(first)).all())
    return isinstance(block[0], str) and block.count(block[0]) == len(block)


def _floats(block: Column) -> Sequence[float] | None:
    """A float block's cells: an array's as floats, or a sequence whose every cell is exactly
    a ``float`` (``%r`` writes a numpy float as its constructor); None for any other block."""
    if _is_array(block):
        return block.tolist()
    return block if {*map(type, block)} == {float} else None


def _row_blocks(
    columns: Sequence[Column], field: Callable[[Column], Field],
    prefixes: Sequence[str], end: str, sep: str,
) -> Iterator[str]:
    """Each block of rows of ``columns``, the rows joined by ``sep``.  A block's rows come
    from one ``%`` row template, built for the block: ``prefixes[k]`` then the field that
    ``field`` gives the block of column k, for each k, then ``end``.  A field is a literal
    (a block that holds one value) or a ``%`` field with the values that fill it; a block
    of literals only is its one row repeated.  Rows stop with the shortest column."""
    n = min(map(len, columns), default=0)
    prefixes = [prefix.replace("%", "%%") for prefix in prefixes]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        template, values = [], []
        for prefix, column in zip(prefixes, columns):
            spec, cells = field(column[start:stop])
            template += prefix, spec
            if cells is not None:
                values.append(cells)
        row = "".join(template) + end
        yield sep.join(map(row.__mod__, zip(*values)) if values else [row % ()] * (stop - start))


def text_table(
    columns: Sequence[Column],
    precision: int,
    *,
    header: Sequence[str] | None = None,
    sep: str = ",",
) -> str:
    """The rows of ``columns`` as lines, cells joined by ``sep``: CSV below a
    ``header`` line, or ``key = value`` lines with ``sep=" = "``.

    Each block of lines (:data:`_BLOCK_ROWS` of them) comes from one ``%`` row
    template, built from the block's cells, one field per column, picked by its
    cells and not by their container.  A block that holds one value (see
    :func:`_constant`) is a literal, that cell's text.  Any other block of
    floats (:func:`_floats`: an array's, or a list's) is a ``%.{precision}g``
    field filled with its values, and any other block, strings or mixed cells
    alike, is a ``%s`` field of its cells as :func:`cell_formatter` writes them.
    """
    number = _number_spec(precision)
    cell = cell_formatter(precision)

    def field(block: Column) -> Field:
        if _constant(block):
            return _literal(cell(block[0]))
        values = _floats(block)
        return ("%s", map(cell, block)) if values is None else (number, values)

    prefixes = ["", *[sep] * (len(columns) - 1)]
    head = "" if header is None else sep.join(header) + "\n"
    return "".join([head, *_row_blocks(columns, field, prefixes, "\n", "")])


_NOT_JSON = "Out of range float values are not JSON compliant"  # as json.dumps words it


def _json_floats(strings: Iterable[str]) -> list[str]:
    """json's tokens for the floats that number strings stand for: their
    ``repr``.  A NaN or infinity raises ValueError, as
    ``json.dumps(allow_nan=False)`` does."""
    tokens = list(map(repr, map(float, strings)))
    if {"nan", "inf", "-inf"}.intersection(tokens):
        raise ValueError(_NOT_JSON)
    return tokens


def _flagged(block: np.ndarray, precision: int) -> list[int]:
    """The cells of a float block whose ``%.{precision}g`` string may not be
    json's token (the ``repr`` of :func:`_json_floats`), for a precision up
    to 15: the non-finite, those under 1e-306 in size, and those within
    |x| * 10**(1-precision) of an integer.

    Up to 15 digits (DBL_DIG) a normal double keeps the digits of its
    string, so the two differ only where ``repr`` adds ``.0`` to an integer
    or ``-0`` or writes an exponent from ``precision`` to 15 out in full, and
    where an exponent of 308 or more in size changes the digits (a subnormal
    losing some, or a rounding past the largest double).  The flagged cells
    are a superset of these.  A cell that
    ``%g`` writes as an integer or ``-0`` is within half a unit of its last
    digit, at most |x| * 10**(1-precision) / 2, of an integer.  So is every
    cell from 10**(precision-1) / 2 up in size, and with it every exponent
    from ``precision`` up, 308 and more included.  An exponent of -308 or
    less (a subnormal, which may lose digits) needs a cell under 1e-306.
    """
    np = _numpy()
    size = np.abs(block)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, which compares False
        clean = np.abs(block - np.rint(block)) > size * 10.0 ** (1 - precision)
    return (~clean | (size < 1e-306)).nonzero()[0].tolist()


def _rounded(x: object, number: Callable[[object], str]) -> object:
    if isinstance(x, float):
        return float(number(x))
    if isinstance(x, dict):
        return {k: _rounded(v, number) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v, number) for v in x]
    return x


_ROWS_MARK = "\0rows"  # stands in for the table while the rest is dumped


def json_text(
    doc: dict,
    precision: int,
    *,
    rows: Sequence[Column],
    keys: Sequence[str] | None = None,
) -> str:
    """Indented JSON of ``doc`` and a table, with every float rounded to
    ``precision`` significant digits; a NaN or infinity, or a float that
    rounds past the largest double, raises ValueError.

    ``doc`` gains a last key ``"rows"`` holding the table ``rows`` (given as
    columns of scalar cells): one object per row keyed by ``keys``, or one
    array per row without keys.  The bytes are those of
    ``json.dumps(..., indent=2)`` of the rounded document with the table in
    it.  Each block of rows comes from one ``%`` row template at that depth,
    built from the block's cells as in :func:`text_table`: a column's block
    that holds one value is a literal, its token.  A float's token is the
    ``repr`` of the float its ``%.{precision}g`` string stands for
    (:func:`_json_floats`); any other cell's is the one ``json`` dumps.  A
    block of floats (:func:`_floats`) takes one field: at 17 digits that float
    is the cell itself, so once every cell is finite the field is ``%r``; at
    16, and for a list up to 16, it is a ``%s`` field of the tokens, made in
    one call.  Up to 15 an array block in which :func:`_flagged` names no
    cell is a ``%.{precision}g`` field, since each cell's string is its token;
    any other is a ``%s`` field of the strings, the flagged ones replaced by
    their tokens, each distinct string converted once.  Any other block is a
    ``%s`` field of its cells' tokens.  Every block is built before the text
    is returned, so a cell that raises leaves no partial table.
    """
    import json  # only a JSON command loads it

    spec = _number_spec(precision)
    number = spec.__mod__
    text = json.dumps(_rounded({**doc, "rows": _ROWS_MARK}, number), indent=2, allow_nan=False)

    def token(x: object) -> str:
        return _json_floats((number(x),))[0] if isinstance(x, float) else json.dumps(x)

    def field(block: Column) -> Field:
        if _constant(block):
            return _literal(token(block[0]))
        values = _floats(block)
        if values is None:
            return "%s", map(token, block)
        if precision == 17:  # %.17g round-trips every double: the token is its repr
            if not all(map(math.isfinite, values)):
                raise ValueError(_NOT_JSON)
            return "%r", values
        if precision == 16 or not _is_array(block):  # at 16 every cell is flagged
            return "%s", _json_floats(map(number, values))
        flagged = _flagged(block, precision)
        if not flagged:
            return spec, values
        strings = list(map(number, values))
        picked = [strings[i] for i in flagged]
        tokens = dict.fromkeys(picked)  # a block's flagged strings repeat: convert each once
        tokens = dict(zip(tokens, _json_floats(tokens)))
        for i, s in zip(flagged, map(tokens.__getitem__, picked)):
            strings[i] = s
        return "%s", strings

    if keys is None:
        opening, closing = "[", "]"
        names = [""] * len(rows)
    else:
        opening, closing = "{", "}"
        names = [json.dumps(key) + ": " for key in keys]
    # one row at the depth json.dumps(indent=2) gives the items of a top-level key
    prefixes = [f",\n      {name}" for name in names]
    if prefixes:
        prefixes[0] = f"    {opening}\n      {names[0]}"
    table = ",\n".join(_row_blocks(rows, field, prefixes, f"\n    {closing}", ",\n"))
    head, _, tail = text.rpartition(json.dumps(_ROWS_MARK))
    return "".join([head, "[\n", table, "\n  ]", tail, "\n"] if table else [head, "[]", tail, "\n"])


_RESULT_COLUMNS = ("T_K", "G", "sigma_G", "Q", "sigma_Q", "C", "I", "E", "channel")


def _results_text(table: ResultTable, fmt: str, preset_name: str | None, precision: int) -> str:
    """A table's CSV, or else JSON, text, its cells not read: the CLI writes its own tables
    through it, and :func:`write_results` a table it is handed once it is checked."""
    if fmt == "csv":
        return text_table(table, precision, header=_RESULT_COLUMNS)

    channels = set(table.channel)
    meta = {
        "channel": channels.pop() if len(channels) == 1 else "mixed",
        "preset": preset_name,
        "units": {"T_K": "kelvin", "G": "dimensionless", "correlations": "bit"},
    }
    return json_text({"meta": meta}, precision, rows=table[:-1], keys=_RESULT_COLUMNS[:-1])


def write_results(
    table: ResultTable,
    fmt: str = "csv",
    *,
    preset_name: str | None = None,
    precision: int = 6,
) -> bytes:
    """Serialize a :class:`ResultTable` to CSV or JSON bytes.

    Column order is fixed; floats carry ``precision`` significant digits
    (default 6), so identical inputs give identical bytes.  A row without
    a temperature has an empty ``T_K`` field (``null`` in JSON).  The format is
    checked, then every row (:func:`_check_table`), and the rows are written as read.
    """
    if fmt not in ("csv", "json"):
        raise DataError(f"format must be csv or json, got {fmt!r}")
    return _results_text(_check_table(table), fmt, preset_name, precision).encode("utf-8")


# ---------------------------------------------------------------------------
# scalar parsing

_VWU_RE = re.compile(
    r"^(?P<mantissa>[+-]?(?:\d+\.?\d*|\.\d+))"
    r"(?:\((?P<digits>\d+)\))?"
    r"(?P<exponent>[eE][+-]?\d+)?$"
)


def parse_value_with_uncertainty(text: str) -> ValueWithUncertainty:
    """Parse the compact error notation used in experimental papers.

    ``"-0.54(9)"`` means -0.54 with one sigma of 0.09: the parenthesized
    digits scale the last decimal place of the mantissa.  A bare number has
    sigma 0.  An exponent suffix applies to both.  Each number is read from
    its decimal string in one correctly rounded step; one that lies beyond
    the largest double raises :class:`DataError`.
    """
    if not isinstance(text, str):
        raise DataError(f"value(uncertainty) must be given as text, got {text!r}")
    s = text.strip().replace("−", "-")  # tolerate a typographic minus
    m = _VWU_RE.match(s)
    if m is None:
        raise DataError(f"cannot parse {text!r} as value(uncertainty)")
    mantissa, digits, exponent = m.groups(default="")
    value = float(mantissa + exponent)
    sigma = 0.0
    if digits:
        # the digits with the mantissa's decimal point: "9" under "-0.54" is "0.09"
        decimals = len(mantissa.partition(".")[2])
        padded = digits.rjust(decimals + 1, "0")
        cut = len(padded) - decimals
        sigma = float(f"{padded[:cut]}.{padded[cut:]}{exponent}")
    if not (math.isfinite(value) and math.isfinite(sigma)):
        raise DataError(f"{text!r} lies beyond the range of a double")
    return ValueWithUncertainty(value, sigma)
