"""Every module-level import in the package is used by its module,
every public function, class and method of the package has a caller in
the package or the benchmark (perfbench), unless it is listed below with
its reason, every parameter default of a public function is left unset
by one of those callers, every named parameter of a function is read by
it, every stored attribute is read by some code, and every exception
class is told apart by some code.

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
    "CycloNumber.key": "linalg.row_keys",
    "Echelon.key": "hopf.subalgebra_generators",
    "CoidealSubalgebra.dim": "cli._coideal_payload",
    "Echelon.dim": "reps.matrix_irrep",
    "CoidealSubalgebra.label": "cli._coideal_payload",
    "SimpleObject.label": "cli._irreps_payload",
    "FusionSubcat.label": "cli._subcat_payload",
    "Group.generators": "hopf.generators",
    "Subgroup.generators": "coideal._bicharacter_checks",
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


def _defaulted_parameters(tree: ast.Module):
    """(Class.name or name, name, parameter, position) for each parameter
    with a default of a public function or method of tree; position is
    the index of a positional parameter among the arguments a call
    passes (self and cls not counted), or None for a keyword-only one."""
    defs = [(node.name, node, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m, 0 if any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in m.decorator_list) else 1)
                for m in node.body if isinstance(m, ast.FunctionDef)]
    for qual, fn, skip in defs:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield qual, fn.name, a.arg, i - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield qual, fn.name, a.arg, None


def _never_omitted(tree: ast.Module, callers: list[ast.Module]) -> list[str]:
    """The defaulted parameters of tree's public functions that every
    call in callers passes: a call by the function's name, bare or as an
    attribute, omits a parameter when it passes fewer positional
    arguments than its position and no keyword of its name (a call with
    *args or **kwargs passes everything)."""
    calls = [n for caller in callers for n in ast.walk(caller)
             if isinstance(n, ast.Call)]

    def name_of(call: ast.Call) -> str | None:
        f = call.func
        return (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)

    def omits(call: ast.Call, param: str, position: int | None) -> bool:
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            return False
        return ((position is None or len(call.args) <= position)
                and param not in {k.arg for k in call.keywords})

    return [f"{qual}({param})"
            for qual, name, param, position in _defaulted_parameters(tree)
            if not any(name_of(c) == name and omits(c, param, position)
                       for c in calls)]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_default_is_used_by_a_caller(path):
    # a default that every caller in the package and the benchmark
    # overrides is a knob that only tests could leave unset
    assert _never_omitted(ast.parse(path.read_text()), _CALLERS) == []


def test_a_default_every_caller_passes_is_found():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "class K:\n"
                     "    def m(self, x, y=0): pass\n"
                     "    @staticmethod\n"
                     "    def s(x, y=0): pass\n"
                     "    def _hidden(self, z=0): pass\n")
    callers = [ast.parse("f(1, 2, c=3)\nf(0, c=1)\nK().m(1)\n"
                         "K.s(1, 2)\nK.s(*xs)\n")]
    assert _never_omitted(tree, callers) == ["f(c)", "K.s(y)"]


# parameters their function need not read, and why
_UNREAD_ALLOWED = {
    "verify.verify_identities(seed)": "perfbench/worker.py passes it; no "
                                      "check samples (ROADMAP item 19)",
}


def _unread_parameters(tree: ast.Module, module: str) -> list[str]:
    """module.function(parameter) for each named parameter of a def, at
    any depth, that its body never reads (self and cls aside).  A lambda
    takes the signature its caller sets, and *args or **kwargs catch
    what a protocol passes, so neither is asked to read anything."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for n in ast.iter_child_nodes(node):
            if isinstance(n, ast.ClassDef):
                visit(n, f"{prefix}{n.name}.")
                continue
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = n.args
                read = {m.id for b in n.body for m in ast.walk(b)
                        if isinstance(m, ast.Name)}
                out.extend(f"{module}.{prefix}{n.name}({x.arg})"
                           for x in a.posonlyargs + a.args + a.kwonlyargs
                           if x.arg not in read | {"self", "cls"})
                visit(n, f"{prefix}{n.name}.")
                continue
            visit(n, prefix)
    visit(tree, "")
    return out


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert [q for q in _unread_parameters(ast.parse(path.read_text()),
                                          path.stem)
            if q not in _UNREAD_ALLOWED] == []


def test_listed_unread_parameters_are_unread():
    found = {q for stem, tree in _TREES.items()
             for q in _unread_parameters(tree, stem)}
    assert set(_UNREAD_ALLOWED) <= found


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *rest, c=0, **kw):\n"
                     "    return a + (lambda x, unused: x)(c, 0)\n"
                     "class K:\n"
                     "    def m(self, used, idle):\n"
                     "        def inner(y):\n"
                     "            return used\n"
                     "        return inner\n")
    assert _unread_parameters(tree, "mod") == [
        "mod.f(b)", "mod.K.m(idle)", "mod.K.m.inner(y)"]


# stored attributes that no code in the package or the benchmark reads,
# and why
_UNREAD_ATTRIBUTE_ALLOWED = {
    "errors.ParseError.offset": "callers read the offset of the bad token",
    "chartab.CharacterTable.N": "public attribute of an exported class",
    "chartab.CharacterTable.dual_row": "public attribute of an exported "
                                       "class, written by the "
                                       "dual-uniqueness self-check",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name)
                else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _unread_attributes(tree: ast.Module, module: str,
                       readers: list[ast.Module]) -> list[str]:
    """module.Class.name for each field of a dataclass of tree and each
    self.name assigned in the __init__ of one of its classes, at any
    depth, that no reader loads as an attribute of any object."""
    read = {n.attr for reader in readers for n in ast.walk(reader)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stored = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for m in node.body:
            if (_is_dataclass(node) and isinstance(m, ast.AnnAssign)
                    and isinstance(m.target, ast.Name)):
                stored.append((node.name, m.target.id))
            elif isinstance(m, ast.FunctionDef) and m.name == "__init__":
                stored += [(node.name, n.attr) for n in ast.walk(m)
                           if isinstance(n, ast.Attribute)
                           and isinstance(n.ctx, ast.Store)
                           and isinstance(n.value, ast.Name)
                           and n.value.id == "self"]
    return [f"{module}.{cls}.{attr}" for cls, attr in stored
            if attr not in read]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_stored_attribute_is_read(path):
    assert [q for q in _unread_attributes(ast.parse(path.read_text()),
                                          path.stem, _CALLERS)
            if q not in _UNREAD_ATTRIBUTE_ALLOWED] == []


def test_listed_unread_attributes_are_unread():
    found = {q for stem, tree in _TREES.items()
             for q in _unread_attributes(tree, stem, _CALLERS)}
    assert set(_UNREAD_ATTRIBUTE_ALLOWED) <= found


def test_an_unread_attribute_is_found():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "import dataclasses\n"
                     "@dataclass\n"
                     "class P:\n"
                     "    used: int\n"
                     "    idle: int\n"
                     "@dataclasses.dataclass(frozen=True)\n"
                     "class F:\n"
                     "    spare: int\n"
                     "class K:\n"
                     "    size = 0\n"
                     "    def __init__(self, n):\n"
                     "        self.n, self.stored = n, n\n"
                     "        self.table = [0] * n\n"
                     "    def grow(self):\n"
                     "        self.later = 1\n"
                     "        self.table[0] = self.n\n")
    readers = [tree, ast.parse("print(P(1, 2).used)\n")]
    assert _unread_attributes(tree, "mod", readers) == [
        "mod.P.idle", "mod.F.spare", "mod.K.stored"]


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
