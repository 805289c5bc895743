"""Module boundaries of the package: a private name stays in its module."""

import ast
from pathlib import Path

import holopar

PACKAGE = Path(holopar.__file__).resolve().parent


def _private_imports(path):
    """(line, module, name) of each underscore name that `path` imports
    from another holopar module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "holopar"
        if internal:
            found += [(node.lineno, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    crossing = {p.name: found for p in modules if (found := _private_imports(p))}
    assert crossing == {}
