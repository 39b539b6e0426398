import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from hopfcat import build_double, coideal, hopf
from hopfcat.cli import parse_triple
from hopfcat.coideal import (
    Bicharacter,
    CoidealSubalgebra,
    coideal_from_space,
    bichar_label,
    build_coideal,
    coideal_integral,
    coideal_intersect,
    coideal_product,
    coideal_triples,
    dual_coideal,
    enumerate_coideals,
    enumerate_invariant_bicharacters,
    group_coideal,
    is_normal_hopf_subalgebra,
    quotient_dual,
    triple_coideal,
)
from hopfcat.cyclo import ZERO, CycloNumber, as_cyclo
from hopfcat.errors import InvariantViolation, PreconditionViolated
from hopfcat.groups import (Group, Subgroup, parse_group_spec,
                            subgroup_generated)
from hopfcat.fusion import enumerate_subcats
from hopfcat.hopf import (QTAlgebra, ad_escape, adjoint, apply_antipode,
                          counit_value, generators, is_left_coideal,
                          leg_slices, lmul, mul_rows, pair_eval,
                          right_adjoint, subalgebra_generators, word_span)
from hopfcat.linalg import Echelon, row_addmul, row_scale
from hopfcat.verify import _coinvariants

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
    labels = [bichar_label(G, M, M, bc) for bc in bcs]
    assert labels[0] == "triv"
    assert len(set(labels)) == len(labels)


def test_bicharacters_enumerate_once_per_pair(doubles, monkeypatch):
    """The coideal and subcategory catalogs, every label and the CLI's
    --triple parsing read one list of invariant bicharacters per pair
    (M, H): the enumerations that run, not the memo hits, are counted."""
    A = doubles["D4"]
    # D(D4) on a new copy of D4, so the group's memo starts empty
    G = Group(A.group.table, A.group.name, check=False)
    fresh = QTAlgebra(A.name, A.kind, G, A.labels, A.prod_idx, A.delta,
                      A.counit, A.s_idx, A.r_terms, A.unit_row)
    calls = Counter()
    original = coideal.enumerate_invariant_bicharacters

    def counted(G, M, H):
        calls[M.members, H.members] += 1
        return original(G, M, H)

    monkeypatch.setattr(coideal, "enumerate_invariant_bicharacters", counted)
    cos = enumerate_coideals(fresh)
    labels = [x.label() for x in cos + enumerate_subcats(fresh)]
    for L in cos:
        m, h, b = re.fullmatch(r"C\(M=\[(.*)\],H=\[(.*)\],(.*)\)",
                               L.label()).groups()
        triple = (f"M={m.replace(', ', '+')},H={h.replace(', ', '+')},"
                  f"B={b.removeprefix('B=')}")
        assert triple_coideal(fresh, *parse_triple(G, triple)) is L
    assert any("B=" in label for label in labels)
    pairs = {(M.members, H.members) for M, H, _ in coideal_triples(G)}
    assert calls == Counter(dict.fromkeys(pairs, 1))


def test_bicharacter_ops():
    G = parse_group_spec("Z4")
    M = subgroup_generated(G, [1])
    bcs = enumerate_invariant_bicharacters(G, M, M)
    assert len(bcs) == 4
    keys = {bc.key() for bc in bcs}
    for bc in bcs:
        assert bc.inverse().inverse().key() == bc.key()
        # the transpose, lambda(h, m), is again invariant on M x M
        flipped = Bicharacter(bc.h_members, bc.m_members,
                              tuple(zip(*bc.values)))
        assert flipped.key() in keys
        for m in M.members:
            assert bc.value(m, 0) == ONE and bc.value(0, m) == ONE
    # the trivial bicharacter comes first: its label is triv, index 0
    trivial = [all(v == ONE for row in bc.values for v in row) for bc in bcs]
    assert trivial[0] and sum(trivial) == 1


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
    # L is recovered from (A//L)* as the left coinvariants of the
    # quotient map, a_(1) (x) pi(a_(2)) = a (x) pi(1)
    A = double_s3
    for L in enumerate_coideals(A):
        Bdual = quotient_dual(A, L)
        assert Bdual.dim * L.dim == A.dim
        assert _coinvariants(A, Bdual, "left") == L.space


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
    # each k[N] is built once per algebra: the subcategories carry the
    # very coideals the catalog returned
    subs = enumerate_subcats(triangular_s3)
    assert len(subs) == len(cos)
    assert all(any(D.coideal is L for L in cos) for D in subs)


def test_invalid_bicharacter_rejected(double_s3):
    G = double_s3.group
    M = subgroup_generated(G, [3])
    vals = tuple(tuple(ONE for _ in M.members) for _ in M.members)
    bad = Bicharacter(M.members, (0, 1), vals[:2])
    with pytest.raises(Exception):
        build_coideal(double_s3, M, Subgroup(G, (0, 1)), bad)


def _bicharacter_laws_everywhere(G, M, H, bc):
    """Reference: both multiplicativity laws over every pair and
    invariance under every x in G."""
    val = {(m, h): bc.value(m, h) for m in M.members for h in H.members}
    return (all(val[G.mul(m, m2), h] == val[m, h] * val[m2, h]
                for m in M.members for m2 in M.members for h in H.members)
            and all(val[m, G.mul(h, h2)] == val[m, h] * val[m, h2]
                    for m in M.members for h in H.members
                    for h2 in H.members)
            and all(val[G.conj(G.inv[x], m), h] == val[m, G.conj(x, h)]
                    for x in range(G.n) for m in M.members
                    for h in H.members))


def test_bicharacter_checks_on_generators_refuse_both_defects():
    """On D4, M the rotations <r> and H the center {1, r^2}.  A lambda
    multiplicative in h but not in m, whose first failing pair in the
    full loop has m2 = r^2, no generator of M; and a bimultiplicative
    lambda that a reflection moves.  Both are refused, and the checks
    on generators agree with the full loops on every lambda with values
    +-1, +-i that is trivial at h = 1."""
    A = build_double(parse_group_spec("D4"))
    G = A.group
    rot, center = Subgroup(G, (0, 1, 2, 3)), Subgroup(G, (0, 2))
    assert 2 not in rot.generators()
    i = CycloNumber.zeta(4, 1)

    def bichar(f):
        return Bicharacter(rot.members, center.members,
                           tuple((ONE, f[m]) for m in rot.members))
    non_multiplicative = bichar([ONE, ONE, ONE, -ONE])
    non_invariant = bichar([ONE, i, -ONE, -i])
    for bc in (non_multiplicative, non_invariant):
        assert not _bicharacter_laws_everywhere(G, rot, center, bc)
        with pytest.raises(PreconditionViolated,
                           match="not a G-invariant bicharacter"):
            build_coideal(A, rot, center, bc)
    values = [ONE, -ONE, i, -i]
    verdicts = set()
    for f in itertools.product(values, repeat=4):
        bc = bichar(f)
        want = _bicharacter_laws_everywhere(G, rot, center, bc)
        assert coideal._bicharacter_checks(G, rot, center, bc) == want, f
        verdicts.add(want)
    assert verdicts == {True, False}


def _group_algebra_of_involution(A):
    """k<s> = span{1 x h : h in <s>} inside D(S3), s the transposition at
    index 1: a Hopf subalgebra, so a closed left coideal, not ad-stable."""
    n = A.group.n
    space = Echelon(A.dim, [{A.pair_index(g, h): ONE for g in range(n)}
                            for h in (0, 1)])
    for a in space.rows:
        assert space.contains(apply_antipode(A, a))
        assert all(space.contains(sl) for legs in leg_slices(A, a)
                   for sl in legs)
        for b in space.rows:
            assert space.contains(mul_rows(A, a, b))
    assert space.contains(A.unit_row)
    assert is_left_coideal(A, space, space.rows)
    assert not all(space.contains(adjoint(A, x, a))
                   for a in space.rows for x in range(A.dim))
    return space


def test_coideal_adjoint_check_names_its_failure(double_s3):
    A = double_s3
    space = _group_algebra_of_involution(A)
    with pytest.raises(InvariantViolation) as exc:
        coideal_from_space(A, space)
    msg = str(exc.value)
    assert msg.startswith(
        "D(S3): coideal adjoint stability fails on L(dim=2) at ")
    assert msg.split(" at ")[-1] in {A.labels[x] for x in generators(A)}


def test_coideal_check_names_its_failure_without_a_basis_element(double_s3):
    # span{1, p_1 (x) 1}: a unital subalgebra, but Delta(p_1) has every
    # p_a in its left leg, so it is no left coideal
    A = double_s3
    p1 = A.basis(A.pair_index(1, 0))
    space = Echelon(A.dim, [A.unit_row, p1])
    assert space.contains(mul_rows(A, p1, p1))
    with pytest.raises(InvariantViolation) as exc:
        coideal_from_space(A, space)
    msg = str(exc.value)
    assert "D(S3)" in msg and "left coideal" in msg and "L(dim=2)" in msg
    assert msg == "D(S3): left coideal fails on L(dim=2)"


def test_non_normal_hopf_subalgebra_is_rejected(double_s3):
    A = double_s3
    space = _group_algebra_of_involution(A)
    assert not is_normal_hopf_subalgebra(A, CoidealSubalgebra(A, space, {}))
    assert is_normal_hopf_subalgebra(A, enumerate_coideals(A)[-1])


def test_normality_verdicts_match_the_check_on_every_row(doubles):
    # reference: antipode, coproduct legs and both adjoint actions of the
    # generators of A on every reduced row, not on the generators of L
    A = doubles["D4"]
    verdicts = set()
    for L in enumerate_coideals(A):
        space = L.space
        every_row = all(
            space.contains(v) for row in space.rows
            for v in [apply_antipode(A, row), *sum(leg_slices(A, row), [])]
        ) and all(space.contains(action(A, x, row))
                  for action in (adjoint, right_adjoint)
                  for row in space.rows for x in generators(A))
        assert is_normal_hopf_subalgebra(A, L) == every_row, L.label()
        verdicts.add(every_row)
    assert verdicts == {True, False}


# --- checks on a coideal's own generators S (subalgebra_generators): each
# --- loop moved onto S still refuses an input whose defect the loop over
# --- every reduced row meets first away from S

_TWISTED = "C(M=[0, 3, 4],H=[0, 3, 4],B=2)"


def _coideal(A, label):
    return next(L for L in enumerate_coideals(A) if L.label() == label)


def _first_failure(space, holds):
    """The first reduced row where holds fails, in the order of the loop
    over every reduced row."""
    return next(row for row in space.rows if not holds(row))


def test_generators_are_small_and_certified(doubles):
    for name in ("S3", "D4", "Q8"):
        A = doubles[name]
        for L in enumerate_coideals(A):
            S = subalgebra_generators(A, L.space)
            assert S is not None and len(S) <= 13, (name, L.label())
            assert word_span(A, S, L.dim)[1] == L.space
            assert all(L.space.contains(mul_rows(A, s, row))
                       for s in S for row in L.space.rows)


def test_product_closure_refuses_a_product_of_non_generators(double_s3):
    # a row of the twisted coideal, not one of its generators, pushed out
    # of it: the space keeps 1 and the generators, and its first product
    # outside it is of two non-generators
    A = double_s3
    L = _coideal(A, _TWISTED)
    S = subalgebra_generators(A, L.space)
    rows = L.space.rows
    refused = 0
    for i, row in enumerate(rows):
        if row in S:
            continue
        for e in range(A.dim):
            bent = row_addmul(row, A.basis(e), ONE)
            space = Echelon(A.dim, rows[:i] + [bent] + rows[i + 1:])
            if space == L.space or not space.contains(A.unit_row) or not all(
                    space.contains(s) for s in S):
                continue
            a, b = next((a, b) for a in space.rows for b in space.rows
                        if not space.contains(mul_rows(A, a, b)))
            if a in S or b in S:
                continue
            assert subalgebra_generators(A, space) is None
            with pytest.raises(InvariantViolation) as exc:
                coideal_from_space(A, space)
            assert str(exc.value) == (
                "D(S3): coideal product closure fails on L(dim=6)")
            refused += 1
    assert refused


def test_left_coideal_check_refuses_a_defect_off_the_generators(double_s3):
    # a unital subalgebra whose first row with Delta(l) outside A x L is
    # p1h3, no generator
    A = double_s3
    n = A.group.n
    space = Echelon(A.dim, [A.unit_row,
                            {A.pair_index(g, 2): ONE for g in range(n)}] + [
        A.basis(A.pair_index(g, h)) for g, h in ((1, 3), (1, 5), (5, 1),
                                                  (5, 4))])
    S = subalgebra_generators(A, space)
    assert S is not None

    def coideal_row(row):
        return all(space.contains(sl) for sl in leg_slices(A, row)[0])
    assert _first_failure(space, coideal_row) not in S
    assert not is_left_coideal(A, space, S)
    with pytest.raises(InvariantViolation) as exc:
        coideal_from_space(A, space)
    assert str(exc.value) == "D(S3): left coideal fails on L(dim=6)"


def test_adjoint_checks_refuse_a_defect_off_the_generators(double_s3):
    # k^G # k<s>, s the transposition at index 1: a Hopf subalgebra, so a
    # left coideal, but <s> is not normal; for both actions the first row
    # moved out is no generator
    A = double_s3
    space = Echelon(A.dim, [A.basis(A.pair_index(g, h))
                            for g in range(A.group.n) for h in (0, 1)])
    S = subalgebra_generators(A, space)
    assert S is not None and is_left_coideal(A, space, space.rows)
    for action in (adjoint, right_adjoint):
        def stable(row):
            return all(space.contains(action(A, x, row))
                       for x in range(A.dim))
        assert _first_failure(space, stable) not in S
        assert ad_escape(A, space, action, S) is not None
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): coideal adjoint stability fails "
                             r"on L\(dim=12\) at "):
        coideal_from_space(A, space)
    assert not is_normal_hopf_subalgebra(A, CoidealSubalgebra(A, space, {}))


def test_integral_check_refuses_a_defect_off_the_generators(double_s3,
                                                            monkeypatch):
    # the integral u of C(M=[0, 3, 4],H=[0],triv), put in place of the
    # kernel's: an idempotent of L with eps(u) = 1 whose first l with
    # l u != eps(l) u is no generator
    A = double_s3
    L = _coideal(A, _TWISTED)
    S = subalgebra_generators(A, L.space)
    u = _coideal(A, "C(M=[0, 3, 4],H=[0],triv)").integral

    def absorbs(ell):
        return mul_rows(A, ell, u) == row_scale(u, counit_value(A, ell))
    assert _first_failure(L.space, absorbs) not in S
    combo = {i: c for i, c in enumerate(L.space.coords(u)) if c}
    monkeypatch.setattr(coideal, "nullspace",
                        lambda eqs, d: Echelon(d, [combo]))
    with pytest.raises(InvariantViolation) as exc:
        coideal_integral(A, L.space, L.label, None)
    assert str(exc.value) == f"D(S3): coideal left integral fails on {_TWISTED}"


def test_quotient_dual_refuses_a_functional_failing_off_the_generators(
        double_s3):
    # p0h0^* satisfies f(a l) = eps(l) f(a) for l = 1, the first reduced
    # row, and first fails at a row that is no generator
    A = double_s3
    L = _coideal(A, _TWISTED)
    S = subalgebra_generators(A, L.space)
    f = {0: ONE}

    def kills(ell):
        return all(pair_eval(f, lmul(A, k, ell))
                   == counit_value(A, ell) * f.get(k, ZERO)
                   for k in range(A.dim))
    assert kills(L.space.rows[0])
    assert _first_failure(L.space, kills) not in S
    assert not quotient_dual(A, L).contains(f)


def test_generators_missing_one_fail_the_reach_check(double_s3, monkeypatch):
    A = double_s3
    L = _coideal(A, _TWISTED)
    S = subalgebra_generators(A, L.space)
    assert len(S) > 1
    assert word_span(A, S[:-1], L.dim)[1] != L.space
    fresh = QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx,
                      A.delta, A.counit, A.s_idx, A.r_terms, A.unit_row)
    monkeypatch.setattr(hopf, "_generator_candidates",
                        lambda A, space: S[:-1])
    assert subalgebra_generators(fresh, L.space) is None
