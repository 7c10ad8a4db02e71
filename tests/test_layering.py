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
and takes no uncertainty secant of its own.
The landmark crossings and the susceptibility maximum are frozen constants,
so neither the CLI nor ``thermo`` calls a solver for them.  No module-level
private name is left behind without a reference outside its own definition.
"""

import ast
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
