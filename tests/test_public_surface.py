"""Every name `nmlab` exports or defines is used somewhere besides its own definition.

The exports are the names of the package's `EXPORTS` table, read from the
syntax tree of `__init__.py`.

Package callers are read from the syntax tree: a name counts as used by a
package module when that module's code reads it as a name, reaches it as an
attribute or imports it, so a mention in a docstring or comment does not
count. The benchmark scripts in `perfbench/` name functions by string, so any
line there that mentions the name, other than a `def`/`class` line of it,
counts. An export counts as used by a package module other than `__init__.py`
or by `perfbench/`; a top-level function or class of any package module counts
as used by the package, `__init__.py` included, or by `perfbench/`. A name that
only tests call fails this audit.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nmlab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["EXPORTS"])
    return sorted(name for names in ast.literal_eval(table).values() for name in names)


def defined_names():
    return sorted(node.name
                  for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def package_uses(with_init=False):
    """Names the package's code reads, reaches as attributes, or imports."""
    paths = [p for p in PACKAGE.glob("*.py") if with_init or p.name != "__init__.py"]
    nodes = [node for path in paths for node in ast.walk(ast.parse(path.read_text()))]
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {node.name for node in nodes if isinstance(node, ast.alias)})


def perfbench_lines():
    return [line for path in sorted((ROOT / "perfbench").glob("*.py"))
            for line in path.read_text().splitlines()]


def unused(names, with_init=False):
    uses, lines = package_uses(with_init), perfbench_lines()
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if name not in uses and not any(word.search(line) and not definition.match(line)
                                        for line in lines):
            out.append(name)
    return out


def test_every_export_has_a_caller():
    names = exported_names()
    assert "classical_correlations" in names  # the parse found the exports
    assert unused(names) == []


def test_every_top_level_definition_has_a_caller():
    names = defined_names()
    assert {"_segments", "_report", "unit_vectors"} <= set(names)  # the parse found the helpers
    assert unused(names, with_init=True) == []


def test_only_register_builds_segment_products():
    # a scheme's segments are products of its gate groups, built in one place;
    # every other module asks `register` for the dynamics
    builders = sorted(path.name for path in PACKAGE.glob("*.py")
                      if re.search(r"\b(FractionalUnitary|_gate_unitaries)\(", path.read_text()))
    assert builders == ["register.py"]


def package_imports(path):
    """(module, name) of each name a package module imports from the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nmlab")):
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names if alias.name.startswith("nmlab")]
    return out


def test_no_module_imports_another_modules_private_name():
    # a helper that two modules need is public in the module that owns it
    private = [(path.name, module, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in package_imports(path)
               if name and name.startswith("_") and not name.startswith("__")]
    assert private == []


def test_sweep_imports_no_package_module():
    # the angle search knows nothing of schemes, states or sample times
    assert package_imports(PACKAGE / "register.py") != []  # the audit sees imports
    assert package_imports(PACKAGE / "sweep.py") == []
