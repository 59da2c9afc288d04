"""Every name an `nmlab` module defines at top level is used somewhere besides its definition.

A name is a function, a class or a module-level assignment target. Each is
public, or private, in the module that defines it; the package itself binds
only `__version__`.

Package callers are read from the syntax tree: a name counts as used by a
package module when that module's code reads it as a name, reaches it as an
attribute or imports it, so a mention in a docstring or comment, or the
assignment that defines a constant, does not count. The benchmark scripts in
`perfbench/` name functions by string, so any line there that mentions the
name, other than a `def`/`class` line of it, counts. A name that only tests
use fails this audit.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nmlab"


def top_level(path):
    return ast.parse(path.read_text()).body


def defined_names():
    return sorted(node.name for path in PACKAGE.glob("*.py") for node in top_level(path)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def constant_names():
    """Names bound by module-level assignments, tuple targets unpacked."""
    return sorted(name.id for path in PACKAGE.glob("*.py") for node in top_level(path)
                  if isinstance(node, ast.Assign)
                  for target in node.targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))


def package_uses():
    """Names the package's code reads, reaches as attributes, or imports."""
    nodes = [node for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))]
    return ({node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {node.name for node in nodes if isinstance(node, ast.alias)})


def perfbench_lines():
    return [line for path in sorted((ROOT / "perfbench").glob("*.py"))
            for line in path.read_text().splitlines()]


def unused(names):
    uses, lines = package_uses(), perfbench_lines()
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if name not in uses and not any(word.search(line) and not definition.match(line)
                                        for line in lines):
            out.append(name)
    return out


def test_every_top_level_definition_has_a_caller():
    names, constants = defined_names(), constant_names()
    assert {"_segments", "_report", "unit_vectors"} <= set(names)  # the parse found the helpers
    assert {"BLOCK_SWAP", "GATES_BBC", "WIDTH", "__version__"} <= set(constants)  # and constants
    assert unused(names + constants) == []


def test_only_register_builds_segment_products():
    # a scheme's segments are products of its gate groups, built in one place;
    # every other module asks `register` for the dynamics
    call = re.compile(r"\b(eigenphases|gate_unitary)\(")
    builders = sorted(path.name for path in PACKAGE.glob("*.py")
                      if any(call.search(line) and not re.match(r"\s*def ", line)
                             for line in path.read_text().splitlines()))
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
