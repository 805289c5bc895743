"""The README's library layout names everything the package exports, and
no class that the package does not define."""

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


def test_every_capitalized_name_in_the_library_layout_is_defined():
    # the layout is the paragraphs (or bullets) that start with a
    # `holopar.<module>` name; a capitalized name in backticks there is a
    # class, exception or constant of some holopar module, or a builtin
    defined = set(dir(builtins))
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    readme = (ROOT / "README.md").read_text()
    layout = [p for p in re.split(r"\n\s*\n|\n(?=- )", readme)
              if re.match(r"(- )?`holopar\.\w+", p)]
    named = {name for p in layout for span in re.findall(r"`([^`]+)`", p)
             for name in re.findall(r"\b[A-Z][a-z]\w*", span)}
    assert layout and sorted(named - defined) == []
