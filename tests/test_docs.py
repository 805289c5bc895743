"""The README's library layout names everything the package exports."""

import ast
import re
from pathlib import Path

import holopar

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_appears_in_the_readme():
    tree = ast.parse(Path(holopar.__file__).read_text())
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    missing = sorted(n for n in names if not re.search(rf"`[^`]*\b{n}\b[^`]*`", readme))
    assert names and missing == []
