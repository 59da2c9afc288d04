"""Every name `nmlab` exports or defines is used somewhere besides its own definition.

An export counts as used when it appears on a line of a package module other
than `__init__.py` and its own `def`/`class` line, or on any line of the
benchmark scripts in `perfbench/`. A top-level function or class of any package
module counts as used when it appears on a line of the package or of
`perfbench/` other than its own definition. A name that only tests call fails
this audit.
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


def defined_names():
    return sorted(node.name
                  for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def caller_lines(with_init=False):
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if with_init or p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [line for path in paths for line in path.read_text().splitlines()]


def unused(names, lines):
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            out.append(name)
    return out


def test_every_export_has_a_caller():
    names = exported_names()
    assert "classical_correlations" in names  # the parse found the exports
    assert unused(names, caller_lines()) == []


def test_every_top_level_definition_has_a_caller():
    names = defined_names()
    assert {"_segments", "_report", "unit_vectors"} <= set(names)  # the parse found the helpers
    assert unused(names, caller_lines(with_init=True)) == []


def test_only_register_builds_segment_products():
    # a scheme's segments are products of its gate groups, built in one place;
    # every other module asks `register` for the dynamics
    builders = sorted(path.name for path in PACKAGE.glob("*.py")
                      if re.search(r"\b(FractionalUnitary|_gate_unitaries)\(", path.read_text()))
    assert builders == ["register.py"]
