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


def _names_of(path, name):
    """Line numbers where `path` calls, imports or otherwise names `name`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id == name or \
                isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == name]
    return lines


def test_finite_differences_are_taken_in_geometry_only():
    # central differences serve the frames given by a matrix function; a
    # norm's gradient is a jet pass of its evaluator
    users = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
             if (lines := _names_of(p, "central_differences"))}
    assert set(users) == {"geometry.py"}


def _dataclasses(path):
    """Names of the classes in `path` decorated with ``dataclass``, called
    with options or not."""
    named = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if isinstance(target, ast.Name) and target.id == "dataclass" or \
                        isinstance(target, ast.Attribute) and target.attr == "dataclass":
                    named.append(node.name)
    return named


def test_only_the_classes_that_use_dataclass_machinery_are_dataclasses():
    """Class creation is import cost, paid by every holopar process: a
    frozen dataclass generates and compiles its methods when its module
    is imported, about 0.5 ms a class, against about 0.1 ms for a
    NamedTuple and 0.01 ms for a plain class. So a value class is a
    NamedTuple or a plain class with __slots__, and ``dataclass`` is kept
    where its machinery is used: ``dataclasses.replace`` on a Connection
    or a Fixture, and a Box's hashing and equality (``check_curves`` keeps
    boxes in a set) next to its checked construction."""
    found = sorted(name for p in PACKAGE.glob("*.py") for name in _dataclasses(p))
    assert found == ["Box", "Connection", "Fixture"]
