import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from hopfcat import coideal
from hopfcat.coideal import (
    Bicharacter,
    bichar_label,
    build_coideal,
    coideal_intersect,
    coideal_product,
    dual_coideal,
    enumerate_coideals,
    enumerate_invariant_bicharacters,
    group_coideal,
    is_normal_hopf_subalgebra,
    quotient_dual,
    recover_from_dual,
)
from hopfcat.cyclo import as_cyclo
from hopfcat.errors import PreconditionViolated
from hopfcat.groups import Subgroup, parse_group_spec, subgroup_generated
from hopfcat.fusion import enumerate_subcats
from hopfcat.hopf import QTAlgebra, counit_value, mul_rows

ONE = as_cyclo(1)

EXPECTED_COUNTS = {
    "Z1": 1, "Z2": 5, "Z3": 6, "Z4": 15, "Z2xZ2": 67,
    "Z6": 30, "S3": 8, "D4": 45, "Q8": 45,
}


def test_enumeration_counts(doubles):
    for name, A in doubles.items():
        assert len(enumerate_coideals(A)) == EXPECTED_COUNTS[name], name


def test_coideals_closed_and_unital(double_s3):
    for L in enumerate_coideals(double_s3):
        rows = L.space.rows
        assert L.space.contains(double_s3.unit_row)
        for a in rows:
            for b in rows:
                assert L.space.contains(mul_rows(double_s3, a, b))


def test_integral_properties(double_s3):
    for L in enumerate_coideals(double_s3):
        lam = L.integral
        assert counit_value(double_s3, lam) == ONE
        assert L.space.contains(lam)
        # idempotent: absorbs multiplication by coideal elements
        assert mul_rows(double_s3, lam, lam) == lam


def test_dims_divide(doubles):
    for A in doubles.values():
        for L in enumerate_coideals(A):
            assert A.dim % L.dim == 0


def test_build_coideal_dim(double_s3):
    G = double_s3.group
    M = subgroup_generated(G, [3])  # rotations
    H = subgroup_generated(G, [3])
    bcs = enumerate_invariant_bicharacters(G, M, H)
    assert len(bcs) == 3
    for bc in bcs:
        L = build_coideal(double_s3, M, H, bc)
        # dim = |H| * [G : M]
        assert L.dim == 3 * 2


def test_bicharacter_labels_distinct(double_s3):
    G = double_s3.group
    M = subgroup_generated(G, [3])
    bcs = enumerate_invariant_bicharacters(G, M, M)
    labels = [bichar_label(double_s3, M.members, M.members, bc) for bc in bcs]
    assert labels[0] == "triv"
    assert len(set(labels)) == len(labels)


def test_bicharacter_labels_enumerate_once(doubles, monkeypatch):
    A = doubles["D4"]
    # the same catalog on a copy of D(D4) whose memo is still empty
    fresh = QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx,
                      A.delta, A.counit, A.s_idx, A.r_terms, A.unit_row)
    objs = [dataclasses.replace(x, algebra=fresh)
            for x in enumerate_coideals(A) + enumerate_subcats(A)]
    calls = Counter()
    original = coideal.enumerate_invariant_bicharacters

    def counted(G, M, H):
        calls[M.members, H.members] += 1
        return original(G, M, H)

    monkeypatch.setattr(coideal, "enumerate_invariant_bicharacters", counted)
    labels = [x.label() for x in objs] + [x.label() for x in objs]
    assert any("B=" in label for label in labels)
    assert calls and max(calls.values()) == 1


def test_bicharacter_ops():
    G = parse_group_spec("Z4")
    M = subgroup_generated(G, [1])
    bcs = enumerate_invariant_bicharacters(G, M, M)
    assert len(bcs) == 4
    for bc in bcs:
        assert bc.inverse().inverse().key() == bc.key()
        assert bc.op().op().key() == bc.key()
        for m in M.members:
            assert bc.value(m, 0) == ONE and bc.value(0, m) == ONE
    assert sum(bc.is_trivial() for bc in bcs) == 1


def test_coideal_labels_unique(doubles):
    for name in ("S3", "D4"):
        labels = [L.label() for L in enumerate_coideals(doubles[name])]
        assert len(set(labels)) == len(labels), name


def test_dual_coideal_involution(double_s3):
    cos = enumerate_coideals(double_s3)
    for L in cos:
        Ls = dual_coideal(double_s3, L)
        assert any(Ls.key() == M.key() for M in cos)
        Lss = dual_coideal(double_s3, Ls)
        assert Lss.key() == L.key()


def test_product_and_intersection(double_s3):
    A = double_s3
    cos = enumerate_coideals(A)
    unit = min(cos, key=lambda L: L.dim)
    full = max(cos, key=lambda L: L.dim)
    assert unit.dim == 1 and full.dim == A.dim
    for L in cos:
        assert coideal_product(A, L, unit).key() == L.key()
        assert coideal_product(A, L, full).key() == full.key()
        assert coideal_intersect(A, L, full).key() == L.key()
        assert coideal_intersect(A, L, unit).key() == unit.key()
    # product is a join: contains both factors
    for L1 in cos[:4]:
        for L2 in cos[:4]:
            P = coideal_product(A, L1, L2)
            for r in L1.space.rows:
                assert P.space.contains(r)
            meet = coideal_intersect(A, L1, L2)
            for r in meet.space.rows:
                assert L1.space.contains(r) and L2.space.contains(r)


def test_quotient_dual_dims(double_s3):
    A = double_s3
    for L in enumerate_coideals(A):
        Bdual = quotient_dual(A, L)
        assert Bdual.dim * L.dim == A.dim
        rec = recover_from_dual(A, L)
        assert rec == L.space


def test_normality(double_s3):
    cos = enumerate_coideals(double_s3)
    flags = [is_normal_hopf_subalgebra(double_s3, L) for L in cos]
    # exactly the two twisted rotation coideals fail
    assert flags.count(False) == 2
    for L, ok in zip(cos, flags):
        if not ok:
            assert "B=" in L.label()


def test_group_coideal(triangular_s3):
    G = triangular_s3.group
    A3 = subgroup_generated(G, [3])
    L = group_coideal(triangular_s3, A3)
    assert L.dim == 3
    with pytest.raises(PreconditionViolated):
        group_coideal(triangular_s3, subgroup_generated(G, [1]))


def test_triangular_coideal_count(triangular_s3):
    cos = enumerate_coideals(triangular_s3)
    assert sorted(L.dim for L in cos) == [1, 3, 6]


def test_invalid_bicharacter_rejected(double_s3):
    G = double_s3.group
    M = subgroup_generated(G, [3])
    vals = tuple(tuple(ONE for _ in M.members) for _ in M.members)
    bad = Bicharacter(M.members, (0, 1), vals[:2])
    with pytest.raises(Exception):
        build_coideal(double_s3, M, Subgroup(G, (0, 1)), bad)
