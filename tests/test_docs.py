"""The README's library layout names everything the package exports, no
class that the package does not define, and no attribute that its class
lacks."""

import ast
import builtins
import re
from pathlib import Path

import holopar

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(holopar.__file__).resolve().parent


def test_every_exported_name_appears_in_the_readme():
    tree = ast.parse(Path(holopar.__file__).read_text())
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    missing = sorted(n for n in names if not re.search(rf"`[^`]*\b{n}\b[^`]*`", readme))
    assert names and missing == []


def _layout():
    """The library layout: the paragraphs (or bullets) that start with a
    `holopar.<module>` name."""
    readme = (ROOT / "README.md").read_text()
    return [p for p in re.split(r"\n\s*\n|\n(?=- )", readme)
            if re.match(r"(- )?`holopar\.\w+", p)]


def test_every_capitalized_name_in_the_library_layout_is_defined():
    # a capitalized name in backticks in the layout is a class, exception
    # or constant of some holopar module, or a builtin
    defined = set(dir(builtins))
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    layout = _layout()
    named = {name for p in layout for span in re.findall(r"`([^`]+)`", p)
             for name in re.findall(r"\b[A-Z][a-z]\w*", span)}
    assert layout and sorted(named - defined) == []


def _class_members():
    """Each holopar class by name, with the names of its methods and
    properties, class attributes, slots and fields, its holopar base
    classes' included."""
    own, bases = {}, {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
                    if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                        names.update(ast.literal_eval(item.value))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
            own[node.name] = names
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]

    def members(name):
        return own[name].union(*(members(b) for b in bases[name] if b in own))
    return {name: members(name) for name in own}


def test_every_dotted_class_attribute_in_the_library_layout_resolves():
    # `Class.attr` in backticks names a method, property, class attribute,
    # slot or field of that holopar class
    members = _class_members()
    dotted = {m for p in _layout() for span in re.findall(r"`([^`]+)`", p)
              for m in re.findall(r"\b([A-Z]\w*)\.(\w+)", span)}
    unresolved = sorted(f"{cls}.{attr}" for cls, attr in dotted
                        if attr not in members.get(cls, ()))
    assert dotted and unresolved == []
