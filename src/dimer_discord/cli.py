"""Command-line front end.

Seven subcommands: ``theory`` (sweep the exact curves), ``landmarks``
(characteristic temperatures and maxima), ``from-chi`` / ``from-cm`` /
``from-neutron`` (the three experimental inversion channels), ``fit``
(Bleaney-Bowers least squares), and ``figure`` (re-plottable curve data).

Conventions: machine-readable output on stdout, notes and warnings on stderr; exit 0 on
success, 1 when a computation fails, 2 on usage errors.  Each subcommand returns its exit
code and its text, which :func:`main` alone writes to stdout, so a command's notes and
warnings come before its table.  Identical invocations produce byte-identical stdout.
Every warning is shown, in the order it is raised, as one ``Category: text`` line.  The
environment variable ``DIMER_DISCORD_PRECISION`` overrides the printed number of
significant digits (default 6).  Every printed number reads back: a value that would
not (NaN, inf, or one rounding past the largest double at that precision) exits 1, in
every format, with one ``error:`` line naming its column, row and a precision printing it.

``theory`` and ``figure`` compute a grid of up to ``_FLOAT_GRID_MAX`` (8,000, below
where whole processes break even) points one point at a time in floats, and load no
numpy; a larger grid is computed as arrays.  Both print the same bytes for one grid.

A measured series (``from-chi``, ``from-neutron --input``) is computed in one
column pass, and each row it flags prints one stderr line, in row order.  A
dropped row gives its reason, and no other line starts with ``row ``::

    row 3 (T = 3 K): neutron point implies correlator -1.5, outside [-1, 1/3] by more than 0.01: inconsistent with an isolated dimer

A kept row lists its remarks once each, under ``DataWarning`` if anything was
clamped, else under ``PropagationWarning``::

    DataWarning: row 2 (T = 2 K): neutron point implies correlator -1.004; clamped to -1; lower endpoint outside the function domain; sigma_Q taken one-sided

A ``from-neutron --G`` point prints the same line without its ``row N (T = X
K): `` part, and one that would be dropped exits 1 with ``error: <reason>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from collections.abc import Callable, Sequence

from . import dataio, dimer_core, numerics, thermo
from .dataio import PRESETS, ResultTable, load_series, parse_value_with_uncertainty
from .dimer_core import DimerParameters, FloatOrArray, _numpy
from .errors import DimerDiscordError, DomainError
from .numerics import TailModel

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad arguments detected after argparse; maps to exit code 2."""


# ---------------------------------------------------------------------------
# shared flags


def _add_parameter_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("model parameters")
    group.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="material preset supplying the coupling (and usually the g factor)",
    )
    ex = group.add_mutually_exclusive_group()
    ex.add_argument(
        "--J-over-kB",
        dest="j_over_kb",
        type=float,
        metavar="K",
        help="exchange coupling J/k_B in kelvin (negative = antiferro)",
    )
    ex.add_argument(
        "--2J-over-kB",
        dest="j2_over_kb",
        type=float,
        metavar="K",
        help="the same coupling quoted as 2J/k_B",
    )
    gx = group.add_mutually_exclusive_group()
    gx.add_argument("--g-factor", dest="g_factor", type=float, help="scalar g factor")
    gx.add_argument(
        "--g-tensor",
        dest="g_tensor",
        type=float,
        nargs=3,
        metavar=("GX", "GY", "GZ"),
        help="g tensor principal values; powder-averaged to a scalar",
    )


def _resolve_parameters(args: argparse.Namespace, *, g_only: bool = False) -> DimerParameters:
    preset = dataio.preset(args.preset) if args.preset else None
    j_flag = getattr(args, "j_over_kb", None)
    j2_flag = getattr(args, "j2_over_kb", None)
    if preset is not None and (j_flag is not None or j2_flag is not None):
        raise _UsageError("give either --preset or an explicit coupling, not both")
    if j_flag is not None:
        j = j_flag
    elif j2_flag is not None:
        j = 0.5 * j2_flag
    elif preset is not None:
        j = preset.j_over_kb
    elif not g_only:
        raise _UsageError(
            "a coupling is required: --preset, --J-over-kB, or --2J-over-kB"
        )
    else:
        j = -1.0  # placeholder; commands that allow this never read the coupling
    g = tuple(args.g_tensor) if args.g_tensor is not None else args.g_factor
    if g is None and preset is not None:
        g = preset.g_factor
    if g_only and g is None:
        raise _UsageError(
            "a g factor is required: --g-factor, --g-tensor, or a preset that has one"
        )
    return DimerParameters(j, g)


def _table_text(table: ResultTable, args: argparse.Namespace, precision: int) -> str:
    return dataio._results_text(table, args.format, getattr(args, "preset", None), precision)


def _note(text: str) -> None:
    print(f"note: {text}", file=sys.stderr)


def _show_warning(message, category, *_) -> None:
    sys.stderr.write(f"{category.__name__}: {message}\n")  # no path:line: or source line


# ---------------------------------------------------------------------------
# subcommands


def _cmd_theory(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    params = _resolve_parameters(args)
    j_abs = abs(params.j_over_kb)
    t_min = args.t_min if args.t_min is not None else 0.02 * j_abs
    t_max = args.t_max if args.t_max is not None else 6.0 * j_abs
    if not (0.0 < t_min < t_max < math.inf):
        raise _UsageError(f"need 0 < t-min < t-max < inf, got {t_min:g} and {t_max:g}")
    grid = _grid(t_min, t_max, args.n_points, args.grid)

    def rows(t: FloatOrArray) -> ResultTable | tuple:
        return dataio._exact_results(t, dimer_core.correlator_from_temperature(params, t), "theory")

    return 0, _table_text(ResultTable(*_columns(rows, grid)), args, precision)


def _cmd_landmarks(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    params = _resolve_parameters(args)
    j, scaled = params.j_over_kb, dimer_core._scaled_abs
    lines: list[tuple[str, object]] = [
        ("branch", "antiferro" if params.antiferro else "ferro"),
        ("J_over_kB_K", j),
    ]
    g_scalar = params.scalar_g
    if g_scalar is not None:
        lines.append(("g_factor", g_scalar))

    def landmark(name: str, scale: tuple[int, int], t: float, *more: tuple[str, object]) -> None:
        # each k_B T/|J| line is universal: its exact scale at |J| = 1, not divided by a rounded T
        lines.extend([(f"{name}_kT_over_absJ", scaled(scale, 1.0)), (f"{name}_T_K", t), *more])

    if params.antiferro:
        t_death = dimer_core.entanglement_death_temperature(params)
        # the correlator is exactly -1/3 where the concurrence dies
        at_death = dimer_core.measures_from_correlator(-1.0 / 3.0)
        landmark("entanglement_death", dimer_core._DEATH_TEMPERATURE, t_death,
                 ("mutual_information_at_death_bits", at_death.mutual_information),
                 ("discord_at_death_bits", at_death.discord))

        # each crossing sits at a fixed correlator, so at a fixed k_B T/|J|
        qe, ce = dimer_core._QE_CROSSING_TEMPERATURE, dimer_core._CE_CROSSING_TEMPERATURE
        at_qe = dimer_core.measures_from_correlator(dimer_core.QE_CROSSING_G)
        at_ce = dimer_core.measures_from_correlator(dimer_core.CE_CROSSING_G)
        landmark("QE_crossing", qe, scaled(qe, j), ("QE_crossing_bits", at_qe.discord))
        landmark("CE_crossing", ce, scaled(ce, j), ("CE_crossing_bits", at_ce.classical),
                 # the discord does not pass through this crossing; report it too
                 ("CE_crossing_discord_bits", at_ce.discord))
    else:
        at_zero = dimer_core.measures_from_correlator(dimer_core.G_MAX)
        lines += [
            ("discord_T0_bits", at_zero.discord),
            ("classical_T0_bits", at_zero.classical),
            ("discord_to_classical_T0", at_zero.discord / at_zero.classical),
        ]

    t_peak, cm_peak = thermo.schottky_maximum(params)
    landmark("schottky_peak", thermo._SCHOTTKY[params.antiferro].t_peak, t_peak,
             ("schottky_peak_cm_over_R", cm_peak))
    if params.antiferro and g_scalar is not None:
        t_chi, chi_max = thermo.susceptibility_maximum(params)
        if chi_max == math.inf:  # |J| below ~2e-309 at g = 2: empty, as from-neutron's T_K
            _note(f"chi_peak_emu_per_mol overflows a double at J/k_B = {j!r} K; it is left empty")
            chi_max = None
        landmark("chi_peak", thermo._CHI_PEAK_TEMPERATURE, t_chi, ("chi_peak_emu_per_mol", chi_max),
                 # chi_max |J| / (N_A g^2 mu_B^2 / k_B)
                 ("chi_peak_reduced", thermo.CHI_PEAK_W / 3.0))

    return 0, dataio.text_table(list(zip(*lines)), precision, sep=" = ")


def _series_text(
    series: dataio.MeasurementSeries, channel: str, args: argparse.Namespace, precision: int,
    g_factor: float | None = None,
) -> tuple[int, str]:
    """The exit code, and the text of a result row per row of ``series`` that inverts,
    through ``dataio._measured_results`` with ``g_factor``; on stderr, in row order,
    each flagged row's remark named by the row's 1-based number.  The command
    fails only when every row does.
    """
    t, values = series.temperatures, series.values
    sigmas = series.sigmas if series.sigmas is not None else _numpy().zeros_like(values)
    table, remarks = dataio._measured_results(t, values, sigmas, channel, g_factor)
    for i, kind, text in remarks:
        line = f"row {i + 1} (T = {float(t[i]):g} K): {text}"
        if issubclass(kind, DimerDiscordError):  # a dropped row
            print(line, file=sys.stderr)
        else:
            _show_warning(line, kind)
    if len(series) and not len(table.t):
        return 1, ""
    return 0, _table_text(table, args, precision)


def _cmd_from_neutron(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    if (args.g_value is None) == (args.input is None):
        raise _UsageError("give exactly one of --G or --input")
    if args.input is not None:
        series = load_series(args.input, "correlator")
        return _series_text(series, "neutron", args, precision)
    g = parse_value_with_uncertainty(args.g_value)  # a value it refuses prints no note
    t = args.temperature
    if t is None:
        _note("no temperature given (--T); T_K is left empty")
    table = ResultTable(*zip(dataio._point_result(t, g.value, g.sigma, "neutron")))
    return 0, _table_text(table, args, precision)


def _cmd_from_chi(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    params = _resolve_parameters(args, g_only=True)  # the inversion reads only g
    series = load_series(args.input, "susceptibility", normalization=f"per_{args.per}")
    return _series_text(series, "magnetometric", args, precision, params.scalar_g)


def _cmd_from_cm(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    params = _resolve_parameters(args)
    cell = dataio.cell_formatter(precision)
    if args.route == "invert":
        if args.temperature is None or args.cm_over_r is None:
            raise _UsageError("route invert needs --T and --cm-over-R")
        t = args.temperature
        t_peak, _ = thermo.schottky_maximum(params)
        side = "hot" if t >= t_peak else "cold"
        g = thermo.correlator_from_specific_heat(params, args.cm_over_r, side=side)
        _note(f"T = {t:g} K is on the {side} side of the Schottky peak ({cell(t_peak)} K)")
    else:  # integrate route
        if args.input is None and args.tail_a is None:
            raise _UsageError("route integrate needs --input and/or --tail-a/--tail-from")
        if (args.tail_a is None) != (args.tail_from is None):
            raise _UsageError("--tail-a and --tail-from go together")
        tail = TailModel(args.tail_a, args.tail_from) if args.tail_a is not None else None
        if args.input is not None:
            series = load_series(args.input, "specific_heat", normalization=f"per_{args.per}")
            t_arr, v_arr = series.temperatures, series.values
        else:
            t_arr = v_arr = ()
        t, u = thermo.internal_energy_from_specific_heat(
            t_arr, v_arr, tail=tail, u0_over_r=args.u0_over_r
        )
        g = thermo.correlator_from_internal_energy(params, u)
        if len(t_arr) == 0 and args.u0_over_r is not None:
            _note(
                "tail-only record: the energy anchors at u(infinity) = 0, "
                "so --u0-over-R is ignored"
            )
        _note(f"u({cell(t)} K)/R = {cell(u)} K")
    table = ResultTable(*zip(dataio._point_result(t, g, 0.0, "calorimetric")))
    return 0, _table_text(table, args, precision)


def _cmd_fit(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    init = _resolve_parameters(args)  # the fit solves for g, so none is needed
    series = load_series(args.input, "susceptibility", normalization=f"per_{args.per}")
    if len(series) < 3:
        raise _UsageError(f"fitting needs at least 3 points, file has {len(series)}")
    t, chi = series.temperatures, series.values
    result = numerics.fit_bleaney_bowers(t, chi, init, sigma=series.sigmas)
    j, g = result.parameters
    chi_model = g * g * dimer_core._unit_susceptibility(j, t)[0]  # T was read by load_series
    names = ("T_K", "chi_emu_per_mol", "chi_model", "residual")
    columns = (t, chi, chi_model, chi_model - chi)
    report = {
        "converged": result.converged,
        "J_over_kB_K": j,
        "twoJ_over_kB_K": 2.0 * j,
        "g_factor": g,
        "residual_norm": result.residual_norm,
        "evaluations": result.evaluations,
        "n_points": len(series),
    }
    if args.format == "json":
        text = dataio.json_text(report, precision, rows=columns, keys=names)
    else:
        text = dataio.text_table([list(report), list(report.values())], precision, sep=" = ")
        text += dataio.text_table(columns, precision, header=names)
    if not result.converged:
        print("fit did not converge; best parameters so far reported", file=sys.stderr)
    return (0 if result.converged else 1), text


# Grids of up to this many points are lists, which theory and figure compute point by point
# in floats without loading numpy; larger grids are arrays.  Measured as whole processes, the
# float path breaks even at ~9,500 points for a ferro JSON theory sweep (its costliest per
# point; ~11,000 antiferro), ~21,000 for a CSV one and ~15,000 for a JSON figure; the 400-point
# defaults sit far below the cut, 2e4-point figures and 1e5-point sweeps far above it.
_FLOAT_GRID_MAX = 8000


def _grid(start: float, stop: float, n: int, spacing: str = "log") -> list[float] | np.ndarray:
    """``n`` grid points from ``start`` to ``stop``, log or linear spaced: a list of floats,
    or above :data:`_FLOAT_GRID_MAX` points the same floats as an array.  Point i is
    ``i*step + start`` as in ``numpy.linspace``, or on a log grid ``10.0 ** (i*step +
    log10(start))`` through libm; the two ends are ``start`` and ``stop`` themselves."""
    if n < 2:
        raise _UsageError(f"need at least 2 grid points, got {n}")
    if spacing == "log":
        lo = math.log10(start)
        step = (math.log10(stop) - lo) / (n - 1)
        try:
            inner = [10.0 ** (i * step + lo) for i in range(1, n - 1)]
        except OverflowError:  # a point next to the largest double rounds past it
            raise DomainError(
                f"a grid point from {start:g} to {stop:g} overflows a double") from None
    else:
        delta = stop - start
        step = delta / (n - 1)
        # a step that underflows to 0 (a subnormal range) is taken as numpy takes it
        inner = [(i * step if step else i / (n - 1) * delta) + start for i in range(1, n - 1)]
    points = [start, *inner, stop]
    return points if n <= _FLOAT_GRID_MAX else _numpy().fromiter(points, float, n)


def _columns(fn: Callable[[FloatOrArray], Sequence], grid: list[float] | np.ndarray) -> Sequence:
    """The columns of ``fn`` on a grid: one call on an array, or one call per point of a list,
    each giving a row, the rows turned into list columns."""
    if type(grid) is not list:
        return fn(grid)
    return [list(column) for column in zip(*map(fn, grid))]


def _figure_data(fig: int, n: int) -> tuple[str, list[str], Sequence]:
    if fig in (1, 2, 6):
        if fig == 6:
            params = dataio.preset("cu2l-oac-ferro").parameters
            grid = _grid(1.0, 500.0, n)
            title = "ferro complex correlations vs temperature"
            names = ["T_K", "G"]
        else:
            params = DimerParameters(-1.0 if fig == 1 else 1.0)
            grid = _grid(0.01, 5.0, n)
            label = "antiferro" if fig == 1 else "ferro"
            title = f"{label} dimer correlations vs reduced temperature"
            names = ["kT_over_absJ", "absG" if fig == 1 else "G"]

        def row(t: FloatOrArray) -> tuple:
            g = dimer_core.correlator_from_temperature(params, t)
            m = dimer_core._measures(g)  # G(T) is in [-1, 1/3]
            return t, abs(g) if fig == 1 else g, m.discord, m.classical, m.entanglement

        return title, names + ["Q", "C", "E"], _columns(row, grid)
    if fig == 3:
        grid = _grid(dimer_core.G_MIN, dimer_core.G_MAX, n, "linear")
        return "discord vs correlator", ["G", "Q"], _columns(
            lambda g: (g, dimer_core.discord(g)), grid)
    if fig == 4:
        grid = _grid(dimer_core.G_MIN, dimer_core.G_MAX, n, "linear")
        return (
            "magnetic specific heat vs correlator",
            ["G", "cm_over_R"],
            _columns(lambda g: (g, thermo.specific_heat_from_correlator(g)), grid),
        )
    # fig == 5
    grid = _grid(1.0, 500.0, n)
    acetates = [dataio.preset(name).parameters
                for name in ("copper-acetate-hydrate", "copper-acetate-anhydrous")]
    return (
        "copper acetate discord vs temperature",
        ["T_K", "Q_copper_acetate_hydrate", "Q_copper_acetate_anhydrous"],
        # G(T) is in [-1, 1/3]: its Q is read straight from the kernel
        _columns(lambda t: (t, *[dimer_core._information(
            dimer_core.correlator_from_temperature(p, t))[2] for p in acetates]), grid),
    )


def _cmd_figure(args: argparse.Namespace, precision: int) -> tuple[int, str]:
    title, names, columns = _figure_data(args.id, args.n_points)
    if args.format == "json":
        doc = {"figure": args.id, "title": title, "columns": names}
        return 0, dataio.json_text(doc, precision, rows=columns)
    return 0, f"# figure {args.id}: {title}\n{dataio.text_table(columns, precision, header=names)}"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer-discord",
        description=(
            "Quantum discord and related correlations of a spin-1/2 Heisenberg "
            "dimer, from theory or from measured susceptibility, specific heat, "
            "or neutron correlator data."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fmt_kwargs = dict(choices=["csv", "json"], default="csv", help="output format")
    per_kwargs = dict(choices=["dimer", "monomer"], default="dimer",
                      help="normalization of the input file (default dimer)")

    p = sub.add_parser("theory", help="sweep the exact correlation curves over T")
    _add_parameter_flags(p)
    p.add_argument("--t-min", type=float, metavar="K", help="grid start (default 0.02 |J|/kB)")
    p.add_argument("--t-max", type=float, metavar="K", help="grid end (default 6 |J|/kB)")
    p.add_argument("--n-points", type=int, default=400, help="grid size (default 400)")
    p.add_argument("--grid", choices=["log", "linear"], default="log", help="grid spacing")
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("landmarks", help="characteristic temperatures and maxima")
    _add_parameter_flags(p)
    p.set_defaults(func=_cmd_landmarks)

    p = sub.add_parser("from-neutron", help="discord from a measured spin correlator")
    p.add_argument(
        "--G",
        dest="g_value",
        metavar="VALUE",
        help='correlator with optional error, e.g. --G="-0.54(9)" (mind the =)',
    )
    p.add_argument("--T", dest="temperature", type=float, metavar="K",
                   help="temperature label for the single-point form")
    p.add_argument("--input", metavar="FILE", help="correlator series CSV (T_K,G[,sigma_G])")
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_from_neutron)

    p = sub.add_parser("from-chi", help="discord from susceptibility data")
    _add_parameter_flags(p)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="susceptibility CSV (T_K,chi_emu_per_mol[,sigma_chi])")
    p.add_argument("--per", **per_kwargs)
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_from_chi)

    p = sub.add_parser("from-cm", help="discord from magnetic specific heat")
    _add_parameter_flags(p)
    p.add_argument("--route", choices=["invert", "integrate"], required=True,
                   help="invert one (T, c_m/R) point or integrate a record to u(T)")
    p.add_argument("--T", dest="temperature", type=float, metavar="K",
                   help="invert route: temperature of the measured point")
    p.add_argument("--cm-over-R", dest="cm_over_r", type=float, metavar="X",
                   help="invert route: measured c_m/R")
    p.add_argument("--input", metavar="FILE",
                   help="integrate route: specific heat CSV (T_K,cm_over_R[,sigma])")
    p.add_argument("--tail-a", dest="tail_a", type=float, metavar="A",
                   help="integrate route: high-T tail coefficient, c_m/R = A/T^2")
    p.add_argument("--tail-from", dest="tail_from", type=float, metavar="K",
                   help="integrate route: temperature the tail takes over")
    p.add_argument("--u0-over-R", dest="u0_over_r", type=float, metavar="K",
                   help="integrate route: ground state energy u(0)/R, else estimated")
    p.add_argument("--per", **per_kwargs)
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_from_cm)

    p = sub.add_parser("fit", help="least-squares Bleaney-Bowers fit of chi(T)")
    _add_parameter_flags(p)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="susceptibility CSV (T_K,chi_emu_per_mol[,sigma_chi])")
    p.add_argument("--per", **per_kwargs)
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("figure", help="emit re-plottable curve data")
    p.add_argument("id", type=int, choices=[1, 2, 3, 4, 5, 6], help="figure number")
    p.add_argument("--n-points", type=int, default=400, help="grid size (default 400)")
    p.add_argument("--format", **fmt_kwargs)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    raw = os.environ.get("DIMER_DISCORD_PRECISION", "6")
    try:
        precision = int(raw)
    except ValueError:
        print(f"usage error: DIMER_DISCORD_PRECISION must be an integer, got {raw!r}",
              file=sys.stderr)
        return 2
    if not (1 <= precision <= 17):
        print(f"usage error: DIMER_DISCORD_PRECISION must be in [1, 17], got {precision}",
              file=sys.stderr)
        return 2
    try:
        t = getattr(args, "temperature", None)  # --T, checked before any note is printed
        if t is not None and not 0.0 < t < math.inf:
            raise _UsageError(f"--T must be a positive, finite temperature, got {t:g}")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a repeated row remark is shown again
            warnings.showwarning = _show_warning
            code, text = args.func(args, precision)
        sys.stdout.write(text)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DimerDiscordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
