import pytest

from hopfcat.errors import NotAGroup, ParseError, UnknownName
from hopfcat.groups import (
    Group,
    Subgroup,
    center_subgroup,
    centralizer_subgroup,
    commute_elementwise,
    normal_subgroups,
    parse_group_spec,
    quotient_group,
    subgroup_generated,
)

CATALOG_ORDERS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4,
    "Z6": 6, "S3": 6, "D4": 8, "Q8": 8,
}


def test_catalog_orders_and_validity():
    for name, order in CATALOG_ORDERS.items():
        G = parse_group_spec(name)
        assert G.n == order
        # rebuilding with check=True revalidates the Cayley table
        Group(G.table, name=name)


def test_parse_errors(tmp_path):
    with pytest.raises(UnknownName):
        parse_group_spec("E8")
    with pytest.raises(ParseError):
        parse_group_spec("")
    with pytest.raises(ParseError):
        parse_group_spec("Z0")
    for spec in ("Z0xZ3", "Z3xZ0"):
        with pytest.raises(ParseError):
            parse_group_spec(spec)
    bad_docs = ['{"name": "x"}', '{"table": 3}', '[[0, "a"], ["a", 0]]',
                '[[0, true], [true, 0]]', '[[0, 1], 1]', '[[0, 1], [1]]',
                '[]', '{}', '7']
    for k, doc in enumerate(bad_docs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(doc)
        with pytest.raises(ParseError):
            parse_group_spec(f"cayley:{path}")
    good = tmp_path / "z2.json"
    good.write_text('{"name": "c2", "table": [[0, 1], [1, 0]]}')
    assert parse_group_spec(f"cayley:{good}").n == 2


def test_perm_spec():
    G = parse_group_spec("perm:(0 1 2),(0 1)")
    assert G.n == 6
    H = parse_group_spec("perm:(0 1 2 3)")
    assert H.n == 4 and H.exponent() == 4


@pytest.mark.parametrize("spec, offset", [
    ("perm:(0 1),(1 2)(2 3)", 16),   # the cycle repeating the point 2
    ("perm:(0 1),(1 2)(", 16),       # the unclosed bracket
    ("perm:(0 1),,(1 2)", 11),       # the empty generator
])
def test_perm_spec_error_offsets_count_from_the_spec(spec, offset):
    with pytest.raises(ParseError) as err:
        parse_group_spec(spec)
    assert err.value.offset == offset


def test_not_a_group():
    with pytest.raises(NotAGroup):
        Group([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        Group([[1, 0], [0, 1]])


def test_basic_operations_s3():
    G = parse_group_spec("S3")
    for a in range(G.n):
        assert G.mul(a, G.inverse(a)) == 0
        assert G.mul(0, a) == a
    orders = sorted(G.element_order(a) for a in range(G.n))
    assert orders == [1, 2, 2, 2, 3, 3]
    assert G.exponent() == 6


def test_conjugacy_classes_s3():
    G = parse_group_spec("S3")
    classes = G.conjugacy_classes()
    assert [set(c.members) for c in classes] == [{0}, {1, 2, 5}, {3, 4}]
    assert sum(c.size for c in classes) == 6
    assert G.class_of() == (0, 1, 1, 2, 2, 1)
    for c in classes:
        assert G.class_index_of(c.representative) == classes.index(c)


def test_conjugacy_classes_q8():
    G = parse_group_spec("Q8")
    sizes = sorted(c.size for c in G.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]


def test_subgroup_generated():
    G = parse_group_spec("S3")
    A3 = subgroup_generated(G, [3])
    assert A3.members == (0, 3, 4)
    assert subgroup_generated(G, []).members == (0,)
    assert subgroup_generated(G, [1, 3]).order == 6


def test_center_and_centralizer():
    D4 = parse_group_spec("D4")
    assert center_subgroup(D4).order == 2
    S3 = parse_group_spec("S3")
    assert center_subgroup(S3).members == (0,)
    c = centralizer_subgroup(S3, 3)
    assert set(c.members) == {0, 3, 4}


def test_commute_elementwise():
    G = parse_group_spec("S3")
    A3 = subgroup_generated(G, [3])
    refl = subgroup_generated(G, [1])
    assert commute_elementwise(A3, A3)
    assert not commute_elementwise(A3, refl)


def test_normal_subgroups():
    G = parse_group_spec("S3")
    normals = normal_subgroups(G)
    assert sorted(n.order for n in normals) == [1, 3, 6]
    D4 = parse_group_spec("D4")
    assert sorted(n.order for n in normal_subgroups(D4)) == [1, 2, 4, 4, 4, 8]


def test_quotient_group():
    G = parse_group_spec("S3")
    A3 = subgroup_generated(G, [3])
    full = Subgroup(G, tuple(range(6)))
    Q, proj = quotient_group(full, A3)
    assert Q.n == 2
    assert proj[1] == proj[2] == proj[5]
    assert proj[0] == proj[3] == proj[4] == 0


def test_json_round_trip():
    G = parse_group_spec("D4")
    H = Group.from_json(G.to_json())
    assert H.table == G.table and H.name == G.name


def test_as_group():
    G = parse_group_spec("S3")
    A3 = subgroup_generated(G, [3])
    H, pos = A3.as_group()
    assert H.n == 3 and H.exponent() == 3
    assert pos[0] == 0


@pytest.mark.parametrize("name", ["Z1", "Z2", "S3", "Q8", "D4", "A4", "D6",
                                  "Z2xZ6"])
def test_generators_generate_with_none_redundant(name):
    G = parse_group_spec(name)
    gens = G.generators()
    assert len(set(gens)) == len(gens) and 0 not in gens
    assert subgroup_generated(G, list(gens)).order == G.n
    # every element kept is needed: without it the rest generate less
    for s in gens:
        rest = [t for t in gens if t != s]
        assert subgroup_generated(G, rest).order < G.n
    assert len(gens) <= 2
