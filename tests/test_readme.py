"""The README's library examples run as they are written.

Every ``python`` block of the "Library" section is run in a fresh namespace, so
a renamed entry or a changed printed row fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
LIBRARY = README.read_text(encoding="utf-8").partition("\n## Library\n")[2].partition("\n## ")[0]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", LIBRARY, re.DOTALL | re.MULTILINE)


def test_the_library_section_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_library_example_runs(block):
    exec(compile(block, str(README), "exec"), {})
