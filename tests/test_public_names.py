"""Every name the package exports has a user outside the tests.

``holerates/__init__.py`` is the public surface; a name there that only
tests call is code kept for nothing.  A use is a mention of the name, as a
whole word, on a line of ``src/holerates/`` (besides ``__init__.py``),
``perfbench/`` (besides ``tracer.py``) or ``scripts/`` that is not the
name's own ``def`` or ``class`` line.  The tracer's list of the functions
it wraps is no use: wrapping a function does not call it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holerates"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _lines() -> list[str]:
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    files += [path for path in (ROOT / "perfbench").rglob("*.py") if path.name != "tracer.py"]
    files += (ROOT / "scripts").rglob("*.py")
    return [line for path in files for line in path.read_text().splitlines()]


def test_every_exported_name_is_used_outside_the_tests():
    lines = _lines()
    unused = []
    for name in _exported():
        use = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(use.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exported but used only by tests: {unused}"
