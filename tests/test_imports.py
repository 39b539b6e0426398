"""Every module-level import in the package is used by its module, and
every public function, class and method of the package has a caller in
the package or the benchmark (perfbench), unless it is listed below with
its reason.

No linter ships with the project, so this reads each module's syntax
tree with the standard library's ast."""

import ast
from pathlib import Path

import pytest

from hopfcat import _HOMES

_SRC = Path(__file__).resolve().parents[1] / "src" / "hopfcat"
_PERFBENCH = _SRC.parents[1] / "perfbench"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport re as regex\n"
                     "from math import pi, tau\nprint(tau)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: regex",
                                     "line 3: pi"]


# public names that need no caller in the package or the benchmark, and why
_NO_CALLER_NEEDED = {
    **{name: "public API, exported by hopfcat/__init__.py" for name in _HOMES},
    "generated_subcategory": "reference route: tests compare its kernel "
                             "route with the fusion closure",
    "recover_from_dual": "reference route: tests recover L from (A//L)*",
}
_CALLERS = [ast.parse(p.read_text()) for p in
            sorted(_SRC.glob("*.py")) + sorted(_PERFBENCH.glob("*.py"))]


def _uncalled(tree: ast.Module, callers: list[ast.Module],
              allowed) -> list[str]:
    """The public top-level functions and classes of tree that occur
    nowhere in callers as a name or an attribute, and the public methods
    of its classes that occur nowhere there as an attribute."""
    names: set[str] = set()
    attrs: set[str] = set()
    for caller in callers:
        for n in ast.walk(caller):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    out = []
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if node.name not in names | attrs and node.name not in allowed:
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_") and m.name not in attrs]
    return out


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    assert _uncalled(ast.parse(path.read_text()), _CALLERS,
                     _NO_CALLER_NEEDED) == []


def test_an_uncalled_function_and_method_are_found():
    tree = ast.parse("def used(): pass\n"
                     "def unused(): pass\n"
                     "def exported(): pass\n"
                     "class K:\n"
                     "    def run(self): pass\n"
                     "    def idle(self): pass\n"
                     "    def _hook(self): pass\n")
    # a method named only as a bare name has no caller
    callers = [ast.parse("used()\nK().run()\nidle = 1\n")]
    assert _uncalled(tree, callers, {"exported": "API"}) == ["unused",
                                                            "K.idle"]
