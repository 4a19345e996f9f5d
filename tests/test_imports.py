"""Every import in the wrapcat sources is used.

A name counts as used when the module reads it anywhere or lists it in
``__all__`` (a re-export).  No linter runs on this code, so this check
keeps dead imports out.
"""

import ast
from pathlib import Path

from wrapcat import cli

SRC = Path(cli.__file__).parent


def unused_imports(source):
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_checker_sees_unused_and_reexported_names():
    src = ("import os\nfrom x import a, b as c\nfrom y import d\n"
           "__all__ = ['d']\nprint(c)\n")
    assert unused_imports(src) == [(1, "os"), (2, "a")]


def test_no_unused_imports_in_wrapcat():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
