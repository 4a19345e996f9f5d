"""Every import in the wrapcat sources is used and stands at module level,
and every function, class and method they define is referenced by the
wrapcat sources themselves.

An import counts as used when the module reads it anywhere or lists it in
``__all__`` (a re-export).  A definition counts as referenced when a Name or
Attribute mentions it outside the definition itself; a method only through
an Attribute, since a bare Name of the same spelling is some other variable.
Code that only the tests reach counts as dead, except the two serializers
named in ``TEST_ONLY``.  The check goes by name, so a definition that shares
its name with a referenced one escapes it.  No linter runs on this code, so
this check keeps dead imports and dead code out.  No module reads a
private name (``_x``) that only another module defines.  True division (``/``)
appears only in the field inverse over Q, and a fresh ``import
wrapcat.cli`` is kept clear of the modules that once came in with
``dataclasses``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from wrapcat import cli

SRC = Path(cli.__file__).parent
TESTS = Path(__file__).parent


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


def nested_imports(source):
    """Line of each import that is not a statement of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


def test_checker_sees_nested_imports():
    src = ("import os\nfrom x import a\n\ndef f():\n    import sys\n"
           "    if a:\n        from y import b\n\nclass C:\n    import z\n")
    assert sorted(nested_imports(src)) == [5, 7, 10]


def test_imports_at_module_level_only_in_wrapcat():
    found = {path.name: nested_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def unreferenced_definitions(defining, referencing):
    """(file, line, name) of each function, class or method defined in the
    ``defining`` sources ({file: text}) that no Name or Attribute in either
    set of sources mentions outside the definition itself (no Attribute, for
    a method).  Dunder methods are called by the language and never count."""
    defs, refs = [], {}
    for fname, text in {**referencing, **defining}.items():
        tree = ast.parse(text)
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append(
                    (fname, node.lineno, isinstance(node, ast.Attribute)))
            elif (fname in defining
                  and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("__")):
                defs.append((fname, node.lineno, node.end_lineno, node.name,
                             id(node) in methods))
    return [(fname, first, name) for fname, first, last, name, method in defs
            if not any((f != fname or not first <= line <= last)
                       and (attr or not method)
                       for f, line, attr in refs.get(name, ()))]


def test_checker_sees_unreferenced_definitions():
    lib = ("def used():\n    pass\n\n"
           "def recursive(n):\n    return recursive(n - 1)\n\n"
           "class C:\n    def __init__(self):\n        pass\n\n"
           "    def method(self):\n        pass\n\n"
           "    def dead(self):\n        pass\n\n"
           "    def shadowed(self):\n        pass\n")
    test = ("from lib import used, C\nused()\nC().method()\n"
            "shadowed = 1\nprint(shadowed)\n")
    assert unreferenced_definitions({"lib": lib}, {"test": test}) == [
        ("lib", 4, "recursive"), ("lib", 14, "dead"), ("lib", 17, "shadowed")]


def test_no_unreferenced_definitions_in_wrapcat():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = {f"tests/{p.name}": p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert unreferenced_definitions(defining, tests) == []


def test_checker_counts_no_test_as_a_reference():
    lib = ("def helper():\n    pass\n\n"
           "def entry():\n    return helper()\n\n"
           "def tested_only():\n    pass\n")
    test = "from lib import tested_only\ntested_only()\n"
    assert unreferenced_definitions({"lib": lib}, {"test": test}) == [
        ("lib", 4, "entry")]
    assert unreferenced_definitions({"lib": lib}, {}) == [
        ("lib", 4, "entry"), ("lib", 7, "tested_only")]


# they serialize the setups that tests/fixture_builders.py builds; no command
# writes a setup file
TEST_ONLY = {("setupfile.py", "canonical_json"), ("setupfile.py", "setup_to_dict")}


def test_no_definitions_only_tests_reach():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = {(fname, name) for fname, _, name in
             unreferenced_definitions(defining, {})}
    assert found == TEST_ONLY


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(sources):
    """(file, line, name) of each private name that a module of ``sources``
    ({file: text}) imports or reads as an attribute, when another module
    defines it (as a function, class, method or assigned name or
    attribute) and the module itself does not."""
    defined, read = {}, []
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            name, store = None, False
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name, store = node.name, True
            elif isinstance(node, ast.Name):
                name, store = node.id, isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.Attribute):
                name, store = node.attr, isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.ImportFrom):
                read += [(fname, node.lineno, a.name) for a in node.names
                         if _private(a.name)]
            if name is not None and _private(name):
                if store:
                    defined.setdefault(name, set()).add(fname)
                elif isinstance(node, ast.Attribute):
                    read.append((fname, node.lineno, name))
    return sorted((fname, line, name) for fname, line, name in read
                  if fname not in defined.get(name, ())
                  and defined.get(name))


def test_checker_sees_foreign_private_names():
    lib = ("def _helper():\n    pass\n\n"
           "class C:\n    def _m(self):\n        self._x = 1\n")
    user = ("from lib import _helper\nimport lib\n\n"
            "def f(c):\n    c._m()\n    c._own = 2\n"
            "    return c._x, c._own, lib._helper, c._nowhere\n")
    assert foreign_private_names({"lib": lib, "user": user}) == [
        ("user", 1, "_helper"), ("user", 5, "_m"), ("user", 7, "_helper"),
        ("user", 7, "_x")]


def test_no_module_reads_a_private_name_of_another():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert foreign_private_names(sources) == []


def true_divisions(source):
    """(line, dotted name of the enclosing definitions, "" at module level)
    of each true division, ``/`` or ``/=``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign))
                    and isinstance(child.op, ast.Div)):
                found.append((child.lineno, scope))
            visit(child, scope)
    visit(ast.parse(source), "")
    return found


def test_checker_sees_true_division():
    src = ("a = 1 / 2\nclass C:\n    def f(self, x):\n        x /= 2\n"
           "        return x // 2\n\ndef g():\n    return lambda y: y / 3\n")
    assert true_divisions(src) == [(1, ""), (4, "C.f"), (8, "g")]


# Q's field inverse, on Fractions, is the one true division: the integer
# elimination over Q divides with ``//``, and a stray ``/`` on two ints
# would silently make a float
TRUE_DIVISION = {("rings.py", "CoefficientRing.inv")}


def test_true_division_only_in_the_field_inverse():
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for _, scope in true_divisions(path.read_text())}
    assert found == TRUE_DIVISION


# ``dataclasses`` pulls in ``inspect``, which pulls in ``ast`` and ``dis``:
# about a tenth of a fresh ``import wrapcat.cli``, paid by every CLI call
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def test_cli_import_loads_no_heavy_module():
    """In a fresh interpreter started with -S, so that no site hook of the
    environment can import them first, ``import wrapcat.cli`` loads none
    of HEAVY."""
    code = ("import sys, wrapcat.cli; "
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
