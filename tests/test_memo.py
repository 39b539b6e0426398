"""Groups and algebras keep what is built from them in one memo.

`groups.memo` is the only code that reads or writes an object's
`_cache`, and the Group and QTAlgebra constructors the only code that
creates one; the syntax-tree test below keeps a hand-written lazy cache
from coming back anywhere in the package."""

import ast
from pathlib import Path

import pytest

from hopfcat import groups
from hopfcat.groups import (Group, all_subgroups, normal_subgroups,
                            parse_group_spec)

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
