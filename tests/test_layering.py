"""Imports point one way: dimer_core and numerics, then thermo, dataio, cli.

Checked on the source with ``ast``, so a cycle cannot hide behind an import
placed inside a function.  No module imports scipy, at the top or inside a
function: the package runs on numpy alone, and no module imports
``dataclasses``.  numpy itself is imported at one
place, inside ``dimer_core._numpy``, so that it loads with the first array
and a scalar call never pays for it; ``json`` likewise only inside
``dataio.json_text``, the one JSON dump, so that CSV and ``key = value``
commands never load it.  The CLI builds its
output as column tables only, never through the one-point result record,
and takes no uncertainty secant of its own.  The field a table block takes in
its row template is picked in ``dataio._row_blocks`` alone, a list block's types scanned once
by ``_floats``; whether a cell is a number, written as its float, is decided by
``dataio._is_number`` alone; and whether a float prints as a number that reads back is
decided by ``dataio._printable``, called by ``_row_blocks`` for every table block and by
``_rounded`` for a JSON document's own values.  The CLI writes stdout
once, in ``main``, the text its subcommand returns.
The landmark crossings and the susceptibility maximum are frozen constants,
so neither the CLI nor ``thermo`` calls a solver for them.  No module-level
private name is left behind without a reference outside its own definition.
The package's public names are the ``__all__`` of each library module, which
``__init__`` star-imports: it names none of them itself.  Each input rule is
raised from one place, a ``dimer_core._real`` call counting as a raise of its
rule, and no public function of ``dimer_core``, ``thermo`` or ``numerics``
converts one of its own parameters with ``float()``: ``_real`` reads them.  Nor
does any of those modules convert an array to floats outside ``dimer_core._check_each``,
the array twin of ``_real``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimer_discord"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _package_imports(node: ast.AST) -> set[str]:
    """Package modules and ``json`` imported by the statements under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            found |= {n.module} if n.module else {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module == "json":
            found.add("json")
        elif isinstance(n, ast.Import):
            found |= {a.name for a in n.names if a.name == "json"}
    return found


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(node: ast.AST, package: str) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == package for a in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == package
    )


# the one JSON dump imports json itself, so that a command without JSON output never loads it
JSON_IMPORTER = ("dataio", "json_text")


@pytest.mark.parametrize("module", MODULES)
def test_no_function_imports_a_package_module_or_json(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = {"json"} if (module, node.name) == JSON_IMPORTER else set()
            imported = _package_imports(node)
            assert imported <= allowed, f"{module}.{node.name} imports inside its body"


def test_json_is_imported_only_inside_the_one_dump():
    sites = [
        (m, n.name) for m in MODULES for n in ast.walk(_tree(m))
        if isinstance(n, ast.FunctionDef) and "json" in _package_imports(n)
    ]
    assert sites == [JSON_IMPORTER]
    top = [n for n in _tree("dataio").body if not isinstance(n, ast.FunctionDef)]
    assert "json" not in _package_imports(ast.Module(top, []))


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("dimer_core", {"errors"}),
        ("numerics", {"dimer_core", "errors"}),
        ("thermo", {"dimer_core", "numerics", "errors"}),
        ("dataio", {"dimer_core", "numerics", "thermo", "errors", "json"}),
    ],
)
def test_imports_point_down(module, allowed):
    imported = _package_imports(_tree(module))
    assert imported <= allowed, f"{module} imports {sorted(imported - allowed)}"


def test_no_module_imports_scipy():
    importers = [m for m in MODULES if any(_imports(n, "scipy") for n in ast.walk(_tree(m)))]
    assert importers == []


def test_no_module_imports_dataclasses():
    # every value record is a NamedTuple; dataclasses would load inspect and ast at start-up
    importers = [
        m for m in MODULES if any(_imports(n, "dataclasses") for n in ast.walk(_tree(m)))
    ]
    assert importers == []


def test_numpy_is_imported_only_inside_the_accessor():
    for module in MODULES:
        top = [n.lineno for n in _tree(module).body if _imports(n, "numpy")]
        assert top == [], f"{module} imports numpy at the top, line {top}"
    sites = [(m, n.lineno) for m in MODULES for n in ast.walk(_tree(m)) if _imports(n, "numpy")]
    (accessor,) = (
        f for f in _tree("dimer_core").body if isinstance(f, ast.FunctionDef) and f.name == "_numpy"
    )
    assert sites == [("dimer_core", n.lineno) for n in ast.walk(accessor) if _imports(n, "numpy")]
    assert len(sites) == 1


def _names(module: str) -> set[str]:
    """Every name, attribute and imported alias the module mentions."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _calls(node: ast.AST, names: set[str]) -> list[ast.Call]:
    """The calls under ``node`` of a function or method named in ``names``."""
    return [
        n for n in ast.walk(node) if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) in names
    ]


def _function(module: str, name: str) -> ast.FunctionDef:
    (function,) = (f for f in _tree(module).body if getattr(f, "name", None) == name)
    return function


def test_a_blocks_field_is_picked_only_in_row_blocks():
    # which field a table block takes (a literal, a float field or a %s one) is one rule, and
    # a list block's types are scanned once, by _floats: _printable holds the numbers it gives
    names = {"_constant", "_floats"}
    sites = [(m, n.lineno) for m in MODULES for n in _calls(_tree(m), names)]
    rows = _function("dataio", "_row_blocks")
    assert sites == [("dataio", n.lineno) for n in _calls(rows, names)]
    assert len(sites) == 2
    (scan,) = (n for n in ast.walk(rows) if isinstance(n, ast.Assign) and _calls(n, {"_floats"}))
    (check,) = _calls(rows, {"_printable"})
    assert ast.unparse(check.args[0]) == ast.unparse(scan.targets[0].elts[1])
    scans = [f.name for f in _tree("dataio").body if isinstance(f, ast.FunctionDef)
             for n in _calls(f, {"map"}) if ast.unparse(n.args[0]) == "type"]
    assert scans == ["_floats"]


def _float_tests(node: ast.AST) -> list[str]:
    """Each test under ``node`` of whether a value is a float: ``isinstance``/``issubclass``
    with ``float`` among its types, or a comparison (``is``, ``==``, ``in``) with ``float``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("isinstance", "issubclass"):
            if "float" in {x.id for x in ast.walk(n.args[1]) if isinstance(x, ast.Name)}:
                found.append(ast.unparse(n))
        elif isinstance(n, ast.Compare) and any(
            isinstance(x, ast.Name) and x.id == "float" for side in (n.left, *n.comparators)
            for x in [side, *getattr(side, "elts", [])]  # float, or a tuple or set holding it
        ):
            found.append(ast.unparse(n))
    return found


def test_a_number_cell_is_decided_by_one_helper():
    # whether a table cell or a JSON value is a number, and so written as its float, is decided
    # by dataio._is_number alone: the writer section tests no value for float anywhere else
    first, last = (_function("dataio", name).lineno for name in ("_number_spec", "write_results"))
    writers = [f for f in _tree("dataio").body
               if isinstance(f, ast.FunctionDef) and first <= f.lineno <= last]
    tests = {f.name: _float_tests(f) for f in writers if _float_tests(f)}
    assert list(tests) == ["_is_number"], tests
    readers = {f.name for f in writers
               if any(getattr(n, "id", None) == "_is_number" for n in ast.walk(f))}
    assert readers == {"_floats", "_rounded", "json_text"}  # cell_formatter %g's the rest


def test_a_printed_value_is_refused_by_one_rule():
    # a NaN, an infinity or a float rounded past the largest double is refused by one check,
    # in every format: JSON's own refusals (json.dumps' allow_nan=False) are gone
    callers = [(m, f.name) for m in MODULES for f in _tree(m).body
               if isinstance(f, ast.FunctionDef) and _calls(f, {"_printable"})]
    assert sorted(callers) == [("dataio", "_rounded"), ("dataio", "_row_blocks")]
    assert sum(len(_calls(_tree(m), {"_printable"})) for m in MODULES) == 2
    for module in MODULES:
        assert not _names(module) & {"_NOT_JSON", "allow_nan"}, module
        assert "allow_nan" not in (SRC / f"{module}.py").read_text(encoding="utf-8"), module


def test_cli_writes_stdout_once_in_main():
    # each subcommand returns its text, and main writes it: one output path
    tree = _tree("cli")
    (main,) = (f for f in tree.body if getattr(f, "name", None) == "main")

    def writes(node):
        return [n for n in _calls(node, {"write"}) if ast.unparse(n.func) == "sys.stdout.write"]

    assert len(writes(tree)) == 1 and writes(main) == writes(tree)
    for call in _calls(tree, {"print"}):  # every print goes to stderr
        assert [ast.unparse(k.value) for k in call.keywords if k.arg == "file"] == ["sys.stderr"]


def test_cli_builds_no_result_record():
    assert not _names("cli") & {"ResultRecord", "result_from_correlator"}


def test_cli_takes_no_secant_of_its_own():
    # sigma_G and sigma_Q come from the column path, whose secant is numerics'
    assert "propagate_uncertainty" not in _names("cli")


@pytest.mark.parametrize(
    "module, solvers",
    [("cli", {"find_crossing", "lambert_w", "maximize_scalar"}), ("thermo", {"lambert_w"})],
)
def test_landmarks_come_from_frozen_constants_not_solvers(module, solvers):
    assert not _names(module) & solvers


def test_landmarks_reads_each_scale_without_unit_parameters():
    # each k_B T/|J| line is its exact scale at |J| = 1; each maximum is taken once, at the
    # command's own parameters
    f = next(n for n in _tree("cli").body if getattr(n, "name", None) == "_cmd_landmarks")
    called = [
        getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        for n in ast.walk(f) if isinstance(n, ast.Call)
    ]
    assert "DimerParameters" not in called
    assert called.count("schottky_maximum") == called.count("susceptibility_maximum") == 1


def _module_level_private_names(tree: ast.Module):
    """``(name, node)`` for each private name a top-level statement defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and n.id.startswith("_") and not n.id.startswith("__"):
                    yield n.id, node


def test_every_private_name_is_referenced_outside_its_definition():
    # an import alone is no reference: a leftover imported elsewhere still shows
    trees = [_tree(m) for m in MODULES]
    used = {}
    for tree in trees:
        for top in tree.body:
            for n in ast.walk(top):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    used.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(top)
    unreferenced = [
        f"{module}.{name}"
        for module, tree in zip(MODULES, trees)
        for name, node in _module_level_private_names(tree)
        if all(top is node for top in used.get(name, []))
    ]
    assert unreferenced == []


def _message_template(node: ast.Raise) -> str | None:
    """The text a ``raise E(...)`` gives its first argument, each ``{...}`` field as ``{}``."""
    if not (isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    text = node.exc.args[0]
    if isinstance(text, ast.Constant) and isinstance(text.value, str):
        return text.value
    if isinstance(text, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in text.values)
    return None


def _module_strings(tree: ast.Module) -> dict[str, str]:
    """Each top-level name bound to a string constant (``A, B = "a", "b"`` too), and its text."""
    strings = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            strings.update(
                (n.id, v.value) for n, v in pairs if isinstance(n, ast.Name)
                and isinstance(v, ast.Constant) and isinstance(v.value, str)
            )
    return strings


def _rule_template(node: ast.Call, strings: dict[str, str]) -> str | None:
    """The text ``dimer_core._real(name, x, rule, ...)`` raises for an ``x`` outside its range,
    ``x`` as ``{}``; ``name`` and ``rule`` may be module-level string constants."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "_real" and len(node.args) > 2):
        return None
    name, rule = (
        a.value if isinstance(a, ast.Constant) else strings.get(getattr(a, "id", None))
        for a in (node.args[0], node.args[2])
    )
    return f"{name} must {rule}, got {{}}"


def _rule_sites(template: str) -> list[tuple[str, int]]:
    """Where ``template`` is raised: a ``raise`` of that text or a ``_real`` call with its rule."""
    sites = []
    for m in MODULES:
        tree = _tree(m)
        strings = _module_strings(tree)
        sites += [
            (m, n.lineno) for n in ast.walk(tree)
            if isinstance(n, ast.Raise) and _message_template(n) == template
            or isinstance(n, ast.Call) and _rule_template(n, strings) == template
        ]
    return sites


@pytest.mark.parametrize(
    "template",
    [
        "temperature must be positive, got {}",
        "tail start {} K lies below the last sample {} K",
        "need at least 2 grid points, got {}",
        "correlator {} not reachable at finite T with {} coupling",
        # the range rules of dimer_core._real
        "correlator must be finite, got {}",
        "concurrence must lie in [0, 1], got {}",
        "g factor must be positive, got {}",
        "g tensor components must be positive, got {}",
        "internal energy must be finite, got {}",
        "u0_over_r must be finite, got {}",
        "c_m/R must be non-negative, got {}",
        "susceptibility must be non-negative, got {}",
        "value must be finite, got {}",
        "sigma must be finite and >= 0, got {}",
        "tail coefficient must be >= 0, got {}",
        "tail start must be positive, got {}",
        "lambert_w argument must be finite, got {}",
        "tol must be positive and finite, got {}",
        # the series rules of numerics._curve and numerics._reals
        "series contains non-finite entries",
        "temperatures and {} must be 1-d arrays of equal length",
        "{} must hold real numbers only",
    ],
)
def test_each_input_rule_is_raised_from_one_place(template):
    # every entry point that reads the value calls the one check
    sites = _rule_sites(template)
    assert len(sites) == 1, sites


# the modules whose public scalar inputs dimer_core._real reads
SCALAR_READERS = ("dimer_core", "thermo", "numerics")


def _public_functions(tree: ast.Module):
    """Each public top-level function, and the ``__new__`` of each public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__new__":
                    yield f"{node.name}.__new__", f


def test_no_public_function_converts_its_own_parameter_with_float():
    # a scalar argument is read by _real, which names it when it is not a real number
    found = []
    for module in SCALAR_READERS:
        for name, f in _public_functions(_tree(module)):
            params = {a.arg for a in f.args.args + f.args.kwonlyargs}
            found += [
                f"{module}.{name}({n.args[0].id})" for n in ast.walk(f)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float"
                and n.args and isinstance(n.args[0], ast.Name) and n.args[0].id in params
            ]
    assert found == []


def _float_conversion(node: ast.AST) -> bool:
    """Whether ``node`` is ``asarray``/``array`` with a float dtype, or ``astype(float)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
    if node.func.attr in ("asarray", "array"):
        dtypes += node.args[1:2]
    elif node.func.attr == "astype":
        dtypes += node.args[:1]
    else:
        return False
    return any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes)


def test_the_array_reader_is_the_only_float_conversion():
    # an array input is read by dimer_core._check_each, as a scalar one is by _real
    found = []
    for module in SCALAR_READERS:
        tree = _tree(module)
        gate = {
            id(n) for f in tree.body if getattr(f, "name", None) == "_check_each"
            for n in ast.walk(f)
        }
        found += [
            f"{module}:{n.lineno}" for n in ast.walk(tree)
            if id(n) not in gate and _float_conversion(n)
        ]
    assert found == []
    assert any(_float_conversion(n) for n in ast.walk(_tree("dimer_core")))  # the gate's own


def test_resolve_parameters_takes_one_flag():
    # a command reads a coupling, or only a g factor: one flag tells which
    (resolve,) = (
        f for f in _tree("cli").body
        if isinstance(f, ast.FunctionDef) and f.name == "_resolve_parameters"
    )
    assert [a.arg for a in resolve.args.args] == ["args"]
    assert len(resolve.args.kwonlyargs) == 1


# every module but the launcher, the CLI and the package itself: their __all__ is the API
LIBRARY = [m for m in MODULES if m not in ("__init__", "__main__", "cli")]

# the package's names when __init__ still listed them by hand: none may go
FORMER_PACKAGE_NAMES = """
    BracketError CODATA ConvergenceError CorrelationSet DataError DataWarning DimerDiscordError
    DimerParameters DomainError FitResult InconsistencyError MaterialPreset MeasurementSeries
    NoSolutionError PRESETS PropagationWarning ResultRecord TailModel ValueWithUncertainty
    classical_correlation cli concurrence correlation_set correlator_from_internal_energy
    correlator_from_specific_heat correlator_from_susceptibility correlator_from_temperature
    dataio dimer_core discord entanglement_death_temperature entanglement_of_formation errors
    find_crossing find_root fit_bleaney_bowers integrate_series_with_tail internal_energy
    internal_energy_from_specific_heat lambert_w load_series maximize_scalar
    measures_from_correlator mutual_information numerics parse_value_with_uncertainty powder_g
    preset propagate_uncertainty result_from_correlator schottky_maximum specific_heat
    specific_heat_from_correlator susceptibility susceptibility_maximum
    temperature_from_correlator thermo write_results
""".split()


def _public(module: str) -> dict[str, object]:
    mod = importlib.import_module(f"dimer_discord.{module}")
    return {name: getattr(mod, name) for name in mod.__all__}


def test_package_exports_each_module_name_as_the_module_object():
    import dimer_discord

    for module in LIBRARY:
        for name, value in _public(module).items():
            assert name in dimer_discord.__all__, f"{module}.{name}"
            assert getattr(dimer_discord, name) is value, f"{module}.{name}"


def test_no_former_package_name_is_dropped():
    import dimer_discord

    assert len(FORMER_PACKAGE_NAMES) == 58
    assert set(FORMER_PACKAGE_NAMES) <= set(dimer_discord.__all__)


def test_no_two_modules_bind_one_public_name_to_different_objects():
    bound = {}
    for module in LIBRARY:
        for name, value in _public(module).items():
            assert bound.setdefault(name, value) is value, f"{module}.{name}"


def test_init_names_no_public_name_of_its_own():
    # only `from . import ...` and one `from .<module> import *` per library module, so that
    # a hand list of names cannot come back; assignments bind dunder names only
    star = []
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1
            if node.module is not None:
                assert [a.name for a in node.names] == ["*"], node.module
                star.append(node.module)
        elif isinstance(node, ast.Assign):
            assert all(isinstance(t, ast.Name) and t.id.startswith("__") for t in node.targets)
        else:
            assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    assert sorted(star) == LIBRARY
