"""Every module-level import in the package is used by its module,
every public function, class and method of the package has a caller in
the package or the benchmark (perfbench), unless it is listed below with
its reason, and every exception class is told apart by some code.

No linter ships with the project, so this reads each module's syntax
tree with the standard library's ast."""

import ast
from collections import defaultdict
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
# module name -> syntax tree, for the package and the benchmark
_TREES = {p.stem: ast.parse(p.read_text()) for p in
          sorted(_SRC.glob("*.py")) + sorted(_PERFBENCH.glob("*.py"))}
_CALLERS = list(_TREES.values())


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


# _uncalled takes any attribute of a method's name for a call, so a
# method whose name another class also defines names one caller here,
# module.function, whose body reads that attribute of an object of its
# class
_SHARED_NAME_CALLERS = {
    "Bicharacter.inverse": "fusion.subcat_from_triple",
    "CycloNumber.inverse": "coideal.coideal_integral",
    "Bicharacter.key": "coideal.bichar_label",
    "CoidealSubalgebra.key": "coideal.enumerate_coideals",
    "CycloNumber.key": "linalg.Echelon.key",
    "Echelon.key": "hopf.subalgebra_generators",
    "CoidealSubalgebra.dim": "cli._coideal_payload",
    "Echelon.dim": "reps.matrix_irrep",
    "CoidealSubalgebra.label": "cli._coideal_payload",
    "SimpleObject.label": "cli._irreps_payload",
    "FusionSubcat.label": "cli._subcat_payload",
    "CycloNumber.to_json": "cli._chartab_payload",
    "Group.to_json": "hopf.QTAlgebra.to_json",
    "QTAlgebra.to_json": "worker.run_stages",
}


def _shared_method_names(trees: list[ast.Module]) -> set[str]:
    """Class.method for each public method whose name more than one class
    defines."""
    owners = defaultdict(list)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")):
                        owners[m.name].append(f"{node.name}.{m.name}")
    return {q for qs in owners.values() if len(qs) > 1 for q in qs}


def _definition(path: str) -> ast.AST:
    """The function or class module.name[.name...] of _TREES."""
    module, *names = path.split(".")
    node = _TREES[module]
    for name in names:
        node = next(n for n in node.body if isinstance(
            n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def test_every_shared_method_name_has_a_listed_caller():
    package = [_TREES[p.stem] for p in _SRC.glob("*.py")]
    assert _shared_method_names(package) == set(_SHARED_NAME_CALLERS)


@pytest.mark.parametrize("method, caller",
                         sorted(_SHARED_NAME_CALLERS.items()))
def test_listed_caller_reads_the_method(method, caller):
    attr = method.split(".")[1]
    assert attr in {n.attr for n in ast.walk(_definition(caller))
                    if isinstance(n, ast.Attribute)}


def test_a_shared_method_name_is_found():
    tree = ast.parse("class A:\n    def run(self): pass\n"
                     "    def only(self): pass\n"
                     "class B:\n    def run(self): pass\n")
    assert _shared_method_names([tree]) == {"A.run", "B.run"}


def _untold(errors: ast.Module, trees: list[ast.Module]) -> list[str]:
    """The exception classes of errors that no tree names outside a raise
    statement, an import and the bases of a class: no except clause,
    isinstance call or tuple of classes tells them apart."""
    named: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Raise):
            return
        if isinstance(node, ast.Name):
            named.add(node.id)
        children = ([*node.decorator_list, *node.keywords, *node.body]
                    if isinstance(node, ast.ClassDef)
                    else ast.iter_child_nodes(node))
        for child in children:
            visit(child)

    for tree in trees:
        visit(tree)
    return [n.name for n in errors.body
            if isinstance(n, ast.ClassDef) and n.name not in named]


def test_every_exception_class_is_told_apart():
    package = [_TREES[p.stem] for p in _SRC.glob("*.py")]
    assert _untold(_TREES["errors"], package) == []


def test_an_untold_exception_class_is_found():
    errors = ast.parse("class Base(Exception): pass\n"
                       "class Caught(Base): pass\n"
                       "class Checked(Base): pass\n"
                       "class Raised(Caught): pass\n")
    user = ast.parse("from errors import Caught, Checked, Raised\n"
                     "try:\n"
                     "    raise Raised('x') from Checked\n"
                     "except Caught as e:\n"
                     "    print(isinstance(e, Checked))\n")
    assert _untold(errors, [user]) == ["Base", "Raised"]
