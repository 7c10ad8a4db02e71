"""The source parses as Python 3.10, the floor ``requires-python`` names.

Each ``.py`` file under ``src/`` and ``tests/`` is parsed with
``ast.parse(..., feature_version=(3, 10))``, so grammar that a 3.10
interpreter refuses, such as ``except*``, fails here on any newer one.  This
checks the grammar only: a library name that first appeared after 3.10 (a
3.11 ``tomllib`` import, say) parses and is not caught.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    assert ROOT / "src" / "dimer_discord" / "dimer_core.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
