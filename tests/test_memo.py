"""Groups and algebras keep what is built from them in one memo.

`groups.memo` is the only code that reads or writes an object's
`_cache`, and the Group and QTAlgebra constructors the only code that
creates one; the syntax-tree test below keeps a hand-written lazy cache
from coming back anywhere in the package."""

import ast
from pathlib import Path

import pytest

from hopfcat import coideal, groups
from hopfcat.coideal import (coideal_from_space, enumerate_coideals,
                             is_normal_hopf_subalgebra)
from hopfcat.fusion import (char_ring, generated_subcategory, left_kernel,
                            simple_objects)
from hopfcat.groups import (Group, all_subgroups, normal_subgroups,
                            parse_group_spec)
from hopfcat.hopf import left_quotients

_SRC = Path(groups.__file__).parent
_OWNERS = ("Group", "QTAlgebra")


def _stray_cache_uses(tree: ast.Module) -> list[int]:
    """Lines that name `_cache` outside memo and the constructors of
    Group and QTAlgebra."""
    allowed: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "memo":
            allowed |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.ClassDef) and node.name in _OWNERS:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed |= {id(n) for n in ast.walk(fn)}
    return [n.lineno for n in ast.walk(tree)
            if id(n) not in allowed
            and (isinstance(n, ast.Attribute) and n.attr == "_cache"
                 or isinstance(n, ast.Constant) and n.value == "_cache")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_cache_is_used_only_by_memo(path):
    assert _stray_cache_uses(ast.parse(path.read_text())) == []


def test_a_lazy_cache_is_found():
    tree = ast.parse(
        "def memo(obj, key, build):\n"
        "    return obj._cache.setdefault(key, build())\n"
        "class Group:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def exponent(self):\n"
        "        if 'e' not in self._cache:\n"
        "            self._cache['e'] = 6\n"
        "        return getattr(self, '_cache')['e']\n")
    assert _stray_cache_uses(tree) == [7, 8, 9]


def test_group_data_is_built_once():
    G = parse_group_spec("D4")
    for build in (normal_subgroups, all_subgroups, Group.conjugacy_classes,
                  Group.class_of, Group.generators,
                  lambda G: normal_subgroups(G)[2].generators()):
        assert build(G) is build(G), build.__name__
    assert G.exponent() == 4


# --- each object is memoized by the function that builds it --------------


def test_each_owner_returns_its_memo(double_s3, monkeypatch):
    A = double_s3
    for i in range(len(simple_objects(A))):
        assert left_kernel(A, i) is left_kernel(A, i)
    assert char_ring(A).classes is char_ring(A).classes
    assert left_quotients(A) is left_quotients(A)
    verdicts = [is_normal_hopf_subalgebra(A, L) for L in enumerate_coideals(A)]
    # a second call decides nothing anew
    monkeypatch.setattr(coideal, "subalgebra_generators", None)
    assert [is_normal_hopf_subalgebra(A, L)
            for L in enumerate_coideals(A)] == verdicts


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_a_catalog_space_finds_its_entry(doubles, name):
    A = doubles[name]
    for L in enumerate_coideals(A):
        assert coideal_from_space(A, L.space) is L


def test_an_equal_space_under_another_key_finds_its_entry(doubles):
    """The kernel route of D(Z6) stores z(3) as -1 + z(6), so some of its
    spaces have a key that no catalog entry has; each still finds the
    entry on the same space, as the exact comparison after a missed key
    finds it."""
    A = doubles["Z6"]
    keys = {L.key() for L in enumerate_coideals(A)}
    missed = 0
    for i in range(len(simple_objects(A))):
        L = generated_subcategory(A, [i]).coideal
        assert any(L is K for K in enumerate_coideals(A)), i
        ker = left_kernel(A, i)
        missed += ker.key() not in keys and L.space == ker
    assert missed


def test_verify_calls_no_memo():
    """verify reads what it shares from the functions that build it; it
    neither calls nor imports memo or memoized."""
    tree = ast.parse((_SRC / "verify.py").read_text())
    names = {n.id if isinstance(n, ast.Name) else
             n.attr if isinstance(n, ast.Attribute) else n.name
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
    assert not names & {"memo", "memoized"}
