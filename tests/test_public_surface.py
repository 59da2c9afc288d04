"""Every name `nmlab` exports is used somewhere besides its own definition.

A name counts as used when it appears on a line of a package module other than
`__init__.py` and its own `def`/`class` line, or on any line of the benchmark
scripts in `perfbench/`. An export that only tests call fails this audit.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nmlab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def caller_lines():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [line for path in paths for line in path.read_text().splitlines()]


def test_every_export_has_a_caller():
    names = exported_names()
    assert "classical_correlations" in names  # the parse found the exports
    lines = caller_lines()
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
