import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfcat.cyclo import CycloNumber, as_cyclo
from hopfcat.errors import BoundExceeded, InvariantViolation
from hopfcat.groups import parse_group_spec
from hopfcat.hopf import (
    DOUBLE_DIM_BOUND,
    ConjClass,
    QTAlgebra,
    _check_central_idempotents,
    _check_char_ring_idempotents,
    _check_class_spans,
    _check_integrals,
    adjoint,
    all_classes,
    apply_antipode,
    build_double,
    build_triangular,
    central_idempotents,
    char_ring_idempotents,
    compute_K_A,
    convolve,
    counit_value,
    delta_of,
    drinfeld_map,
    dual_character,
    generators,
    harpoon_left,
    harpoon_right,
    integrals,
    is_left_coideal,
    lmul,
    mul_rows,
    pair_eval,
    right_adjoint,
    rmul,
    verify_axioms,
    verify_quasitriangular,
)
from hopfcat.fusion import simple_objects
from hopfcat.linalg import Echelon, row_addmul

ONE = as_cyclo(1)
ZERO = as_cyclo(0)


def test_build_double_shape(doubles):
    for name, A in doubles.items():
        n = A.group.n
        assert A.dim == n * n
        assert A.kind == "double"
        assert len(A.labels) == A.dim
        assert counit_value(A, A.unit_row) == ONE


def test_dim_bound():
    with pytest.raises(BoundExceeded):
        build_double(parse_group_spec("Z13"))
    assert build_double(parse_group_spec("Z4")).dim == 16
    assert DOUBLE_DIM_BOUND == 144


def test_axioms_all_catalog(doubles, triangular_s3):
    for A in doubles.values():
        verify_axioms(A)
    verify_axioms(triangular_s3)


def test_product_structure_s3(double_s3):
    A = double_s3
    G = A.group
    # (p_g x h)(p_g' x h') = [g = h g' h^-1] p_g x hh'
    for g in range(6):
        for h in range(6):
            for g2 in range(6):
                k = A.pair_index(g, h)
                k2 = A.pair_index(g2, h)
                prod = mul_rows(A, A.basis(k), A.basis(k2))
                if g == G.mul(G.mul(h, g2), G.inv[h]):
                    assert prod == {A.pair_index(g, G.mul(h, h)): ONE}
                else:
                    assert prod == {}


def test_coproduct_counts(double_s3):
    A = double_s3
    n = A.group.n
    for k in range(A.dim):
        assert len(A.delta[k]) == n
    # unit = sum_g p_g x 1 splits into n terms each: n^2 total
    d = delta_of(A, A.unit_row)
    total = sum(d.values(), ZERO)
    assert total == as_cyclo(n * n)


def test_antipode_involutive_on_double(double_s3):
    A = double_s3
    for k in range(A.dim):
        assert apply_antipode(A, apply_antipode(A, A.basis(k))) == A.basis(k)


def test_integrals(doubles):
    for A in doubles.values():
        lam, t = integrals(A)
        assert counit_value(A, lam) == ONE
        assert pair_eval(t, A.unit_row) == ONE
        # Lambda is a two-sided integral
        for k in range(A.dim):
            want = {} if not A.counit[k] else lam
            assert mul_rows(A, A.basis(k), lam) == want


def test_convolution_unit(double_s3):
    A = double_s3
    eps = {k: ONE for k in range(A.dim) if A.counit[k]}
    f = {3: ONE, 7: as_cyclo(Fraction(1, 2))}
    assert convolve(A, f, eps) == f
    assert convolve(A, eps, f) == f


def _rows_for(A, seed):
    """A basis row, a two-term row and a dense row with cyclotomic values."""
    rnd = random.Random(seed)
    z = CycloNumber.zeta(4)
    dense = {k: as_cyclo(rnd.randint(-2, 2)) + rnd.randint(-1, 1) * z
             for k in range(A.dim)}
    return [{rnd.randrange(A.dim): ONE},
            {rnd.randrange(A.dim): as_cyclo(Fraction(1, 3)),
             rnd.randrange(A.dim): z},
            {k: v for k, v in dense.items() if v}]


def _summed(terms):
    out = {}
    for k, c in terms:
        out[k] = out.get(k, ZERO) + c
    return {k: c for k, c in out.items() if c}


def test_coproduct_maps_match_brute_force(doubles, triangular_s3):
    algebras = (doubles["S3"], doubles["Q8"], triangular_s3)
    for seed, A in enumerate(algebras):
        rows = _rows_for(A, seed) + _rows_for(A, seed + 10)
        for x in rows:
            for y in rows:
                # (x * y)(e_k) = sum of x(e_i) y(e_j) over Delta(e_k)
                assert convolve(A, x, y) == _summed(
                    (k, x.get(i, ZERO) * y.get(j, ZERO))
                    for k in range(A.dim) for i, j in A.delta[k])
                # a <- f = f(a_1) a_2 and f -> a = a_1 f(a_2)
                assert harpoon_left(A, x, y) == _summed(
                    (j, x.get(k, ZERO) * y.get(i, ZERO))
                    for k in range(A.dim) for i, j in A.delta[k])
                assert harpoon_right(A, x, y) == _summed(
                    (i, y.get(k, ZERO) * x.get(j, ZERO))
                    for k in range(A.dim) for i, j in A.delta[k])


def test_harpoon_action_laws(doubles, triangular_s3):
    algebras = (doubles["S3"], doubles["Q8"], triangular_s3)
    for seed, A in enumerate(algebras):
        rows = _rows_for(A, seed + 20)
        for a in rows:
            for f in rows:
                for g in rows:
                    fg = convolve(A, f, g)
                    assert (harpoon_left(A, harpoon_left(A, a, f), g)
                            == harpoon_left(A, a, fg))
                    assert (harpoon_right(A, f, harpoon_right(A, g, a))
                            == harpoon_right(A, fg, a))


def test_check_integrals_rejects_a_normalized_non_cointegral(
        double_s3, triangular_s3):
    for A, t in ((double_s3, {double_s3.pair_index(0, 0): ONE}),
                 (triangular_s3, {0: ONE, 1: ONE})):
        lam, good = integrals(A)
        assert pair_eval(t, A.unit_row) == ONE and t != good
        with pytest.raises(InvariantViolation,
                           match=rf"^{re.escape(A.name)}: "
                           "left cointegral fails on t at "):
            _check_integrals(A, lam, t)


def test_dual_character_agrees_with_complex_conjugate(double_s3):
    A = double_s3
    for s in simple_objects(A):
        dual = dual_character(A, s.character)
        back = dual_character(A, dual)
        assert back == s.character


def test_drinfeld_map_factorizable(doubles):
    for name, A in doubles.items():
        dm = drinfeld_map(A)
        assert dm.is_factorizable
        assert dm.rank == A.dim
        # phi is invertible: invert returns a preimage
        img = dm.phi({0: ONE})
        pre = dm.invert(img)
        assert pre == {0: ONE}


def test_drinfeld_map_triangular(triangular_s3):
    dm = drinfeld_map(triangular_s3)
    assert not dm.is_factorizable
    # Q = 1 x 1, so phi(f) = f(1) 1
    f = {2: ONE, 0: as_cyclo(3)}
    img = dm.phi(f)
    assert img == {k: pair_eval(f, triangular_s3.unit_row) * v
                   for k, v in triangular_s3.unit_row.items() if v}


def test_K_A(double_s3, triangular_s3):
    # factorizable: the R-legs generate everything
    K = compute_K_A(double_s3)
    assert K.dim == double_s3.dim
    assert is_left_coideal(double_s3, K, K.rows)
    Kt = compute_K_A(triangular_s3)
    assert Kt.dim == 1
    assert Kt.contains(triangular_s3.unit_row)


def test_char_ring_idempotents(double_s3):
    A = double_s3
    chars = [s.character for s in simple_objects(A)]
    ring = char_ring_idempotents(A, chars)
    r = len(chars)
    assert len(ring.idempotents) == r
    # F_j are orthogonal convolution idempotents summing to epsilon
    eps = {k: ONE for k in range(A.dim) if A.counit[k]}
    tot = {}
    for j, fj in enumerate(ring.idempotents):
        assert convolve(A, fj, fj) == fj
        for l in range(j + 1, r):
            assert convolve(A, fj, ring.idempotents[l]) == {}
        for k, v in fj.items():
            tot[k] = tot.get(k, ZERO) + v
    assert {k: v for k, v in tot.items() if v} == eps
    # n_j are positive integers with F_j(Lambda) = 1/n_j
    lam, _ = integrals(A)
    for j, nj in enumerate(ring.n_values):
        assert isinstance(nj, int) and nj > 0
        assert pair_eval(ring.idempotents[j], lam) == as_cyclo(Fraction(1, nj))


def test_central_idempotents(double_s3):
    A = double_s3
    chars = [s.character for s in simple_objects(A)]
    es = central_idempotents(A, chars)
    tot = {}
    for i, e in enumerate(es):
        assert mul_rows(A, e, e) == e
        for j in range(i + 1, len(es)):
            assert mul_rows(A, e, es[j]) == {}
        for k, v in e.items():
            tot[k] = tot.get(k, ZERO) + v
    assert {k: v for k, v in tot.items() if v} == A.unit_row


def test_class_dimensions_s3(double_s3):
    A = double_s3
    chars = [s.character for s in simple_objects(A)]
    ring = char_ring_idempotents(A, chars)
    classes = all_classes(A, ring)
    dims = sorted(c.space.dim for c in classes)
    assert dims == [1, 1, 4, 4, 4, 4, 9, 9]
    total = sum(c.space.dim for c in classes)
    assert total == A.dim


def test_verify_quasitriangular(doubles, triangular_s3):
    for A in (doubles["S3"], doubles["Z4"], triangular_s3):
        chars = [s.character for s in simple_objects(A)]
        ring = char_ring_idempotents(A, chars)
        verify_quasitriangular(A, chars, ring)


def test_verify_axioms_catches_broken_antipode(double_s3):
    A = double_s3
    broken = QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx,
                       A.delta, A.counit, list(range(A.dim)), A.r_terms,
                       A.unit_row)
    with pytest.raises(InvariantViolation):
        verify_axioms(broken)


def test_to_json(double_s3):
    A = double_s3
    obj = A.to_json()
    json.dumps(obj)  # serializable
    assert obj["dim"] == 36
    assert obj["kind"] == "double"
    assert len(obj["coproduct"]) == 36 * 6
    assert len(obj["r"]) == 36
    assert all(k >= 0 for _, _, k in obj["product"])


def test_triangular_r_is_unit(triangular_s3):
    A = triangular_s3
    assert A.r_terms == [(0, 0)] or A.r_terms == ((0, 0),)
    assert A.kind == "group"
    assert A.dim == 6


_SCALARS = st.sampled_from([as_cyclo(1), as_cyclo(-2), as_cyclo(Fraction(1, 3)),
                            CycloNumber.zeta(4), CycloNumber.zeta(3, 2)
                            + as_cyclo(1), CycloNumber.zeta(8)])


def _stored(row):
    """A row with each value's stored order and coefficients, in key order."""
    return [(k, v.to_json()) for k, v in row.items()]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["S3", "Q8", "kS3"]),
       st.dictionaries(st.integers(0, 63), _SCALARS, max_size=5))
def test_lmul_rmul_equal_products_by_basis_elements(
        doubles, triangular_s3, which, raw):
    A = triangular_s3 if which == "kS3" else doubles[which]
    row = {k % A.dim: v for k, v in raw.items()}
    for k in range(A.dim):
        assert _stored(lmul(A, k, row)) == _stored(
            mul_rows(A, A.basis(k), row))
        assert _stored(rmul(A, row, k)) == _stored(
            mul_rows(A, row, A.basis(k)))


def test_adjoint_actions_equal_their_two_product_definition(
        doubles, triangular_s3):
    def two_products(A, x, a, left):
        s = A.s_idx
        out = {}
        for i, j in A.delta[x]:
            l, r = (i, s[j]) if left else (s[i], j)
            part = mul_rows(A, mul_rows(A, A.basis(l), a), A.basis(r))
            out = row_addmul(out, part, ONE)
        return out

    for seed, A in enumerate((doubles["S3"], doubles["Q8"], triangular_s3)):
        for a in _rows_for(A, seed + 30):
            for x in range(A.dim):
                assert _stored(adjoint(A, x, a)) == _stored(
                    two_products(A, x, a, True))
                assert _stored(right_adjoint(A, x, a)) == _stored(
                    two_products(A, x, a, False))


def test_generators_generate_the_algebra(doubles, triangular_s3):
    for A in (*doubles.values(), triangular_s3):
        reached = set(generators(A)) | set(A.unit_row)
        frontier = list(reached)
        while frontier:
            i = frontier.pop()
            for x in generators(A):
                for k in (A.prod_idx[i][x], A.prod_idx[x][i]):
                    if k >= 0 and k not in reached:
                        reached.add(k)
                        frontier.append(k)
        assert reached == set(range(A.dim)), A.name


def test_verify_axioms_rejects_a_non_injective_basis_product(double_s3):
    A = double_s3
    prod = [list(row) for row in A.prod_idx]
    j1, j2 = [j for j in range(A.dim) if prod[0][j] >= 0][1:3]
    prod[0][j2] = prod[0][j1]
    broken = QTAlgebra(A.name, A.kind, A.group, A.labels, prod, A.delta,
                       A.counit, A.s_idx, A.r_terms, A.unit_row)
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(broken)
    msg = str(exc.value)
    assert "D(S3)" in msg and "injectivity" in msg and "left" in msg
    assert msg.endswith(f" at {A.labels[0]}")


def test_verify_axioms_names_the_first_non_associative_triple(double_s3):
    # swap two products in one row, away from the unit: every basis product
    # stays injective and the unit axioms hold, but associativity breaks
    A = double_s3
    units = set(A.unit_row)

    def swapped_row_products():
        for i in range(A.dim):
            row = A.prod_idx[i]
            live = [j for j in range(A.dim) if row[j] >= 0 and j not in units]
            if i in units or len(live) < 2:
                continue
            for j1, j2 in zip(live, live[1:]):
                prod = [list(r) for r in A.prod_idx]
                prod[i][j1], prod[i][j2] = row[j2], row[j1]
                cols = [[r[j] for r in prod if r[j] >= 0] for j in (j1, j2)]
                if all(len(set(c)) == len(c) for c in cols):
                    return prod

    prod = swapped_row_products()
    n = A.dim

    def assoc(i, j, l):
        k, m = prod[i][j], prod[j][l]
        return (-1 if k < 0 else prod[k][l]) == (-1 if m < 0 else prod[i][m])

    # Light's order: the middle factor s over the generators, then x, y
    first = next((x, s, y) for s in generators(A) for x in range(n)
                 for y in range(n) if not assoc(x, s, y))
    broken = QTAlgebra(A.name, A.kind, A.group, A.labels, prod, A.delta,
                       A.counit, A.s_idx, A.r_terms, A.unit_row)
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(broken)
    assert str(exc.value) == ("D(S3): associativity fails on basis triple "
                              "({},{},{})".format(*first))


def test_noncentral_orthogonal_idempotents_are_rejected(double_s3):
    A = double_s3
    # p_g x 1 are orthogonal idempotents summing to 1; only p_1 x 1 is central
    E = [{A.pair_index(g, 0): ONE} for g in range(A.group.n)]
    with pytest.raises(InvariantViolation,
                       match="idempotent centrality fails") as exc:
        _check_central_idempotents(A, [], E)
    msg = str(exc.value)
    assert msg.startswith("D(S3): idempotent centrality fails on idempotent 1 at ")
    assert msg.split(" at ")[-1] in {A.labels[x] for x in generators(A)}


def test_phi_of_a_noncharacter_is_not_central(double_s3):
    A = double_s3
    ring = char_ring_idempotents(A, [s.character for s in simple_objects(A)])
    # phi(delta_{p_g x 1}) = p_g x g, not central for the 3-cycle g = 3
    bad = {A.pair_index(3, 0): ONE}
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): phi-of-character centrality fails "
                             r"on character 0 at p\d+h\d+$"):
        verify_quasitriangular(A, [bad], ring)


def test_class_span_missing_an_adjoint_image_is_rejected(double_s3):
    A = double_s3
    ring = char_ring_idempotents(A, [s.character for s in simple_objects(A)])
    broken = 0
    translated = []
    for cls in all_classes(A, ring):
        rows = cls.space.rows
        for drop in range(len(rows)):
            space = Echelon(A.dim, rows[:drop] + rows[drop + 1:])
            if all(space.contains(adjoint(A, x, r))
                   for r in space.rows for x in range(A.dim)):
                # ad-stable: only dual translation can reject it
                try:
                    _check_class_spans(A, [ConjClass(space, cls.class_sum)])
                except InvariantViolation as exc:
                    translated.append(str(exc))
                continue
            broken += 1
            with pytest.raises(InvariantViolation,
                               match="class-span adjoint stability fails"):
                _check_class_spans(A, [ConjClass(space, cls.class_sum)])
    assert broken > 10
    assert translated == ["D(S3): class-span dual translation fails on "
                          "class 0 against p1h0^*"]


# --- checks on generators: each is rejected when only non-generator basis
# --- elements, or one off-diagonal idempotent, are corrupted

def _fresh(A, **changes):
    """A copy of A with some structure tables replaced and an empty memo."""
    parts = dict(prod_idx=A.prod_idx, delta=A.delta, counit=A.counit,
                 s_idx=A.s_idx, r_terms=A.r_terms)
    parts.update(changes)
    return QTAlgebra(A.name, A.kind, A.group, A.labels, parts["prod_idx"],
                     parts["delta"], parts["counit"], parts["s_idx"],
                     parts["r_terms"], A.unit_row)


def _off_generators(A):
    """Basis elements that are neither generators nor unit terms."""
    skip = set(generators(A)) | set(A.unit_row)
    return [k for k in range(A.dim) if k not in skip]


def _swapped_off_generators(A):
    """The product table with two products of a non-generator row swapped,
    at non-generator columns, every basis product still injective."""
    off = _off_generators(A)
    for i in off:
        live = [j for j in off if A.prod_idx[i][j] >= 0]
        for j1, j2 in zip(live, live[1:]):
            prod = [list(r) for r in A.prod_idx]
            prod[i][j1], prod[i][j2] = prod[i][j2], prod[i][j1]
            cols = [[r[j] for r in prod if r[j] >= 0] for j in (j1, j2)]
            if all(len(set(c)) == len(c) for c in cols):
                return prod
    raise AssertionError("no injective swap off the generators")


def test_light_test_rejects_products_broken_off_generators(double_s3):
    A = double_s3
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): associativity fails on basis triple"):
        verify_axioms(_fresh(A, prod_idx=_swapped_off_generators(A)))


def test_counit_multiplicativity_broken_off_generators(double_s3):
    A = double_s3
    eps = list(A.counit)
    k = next(k for k in _off_generators(A) if eps[k])
    eps[k] = 0
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): counit multiplicativity fails on "
                             r"basis pair \(\d+,\d+\)$"):
        verify_axioms(_fresh(A, counit=eps))


def test_coproduct_multiplicativity_broken_off_generators(double_s3):
    # on the span of one non-generator h0, Delta follows the opposite group
    # law: still counital and coassociative, no longer multiplicative
    A = double_s3
    G, n = A.group, A.group.n
    h0 = next(k for k in _off_generators(A)) % n
    delta = [list(t) for t in A.delta]
    for g in range(n):
        delta[A.pair_index(g, h0)] = [
            (A.pair_index(G.mul(g, G.inv[a]), h0), A.pair_index(a, h0))
            for a in range(n)]
    assert delta != A.delta
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): coproduct multiplicativity fails on "
                             r"basis pair \(\d+,\d+\)$"):
        verify_axioms(_fresh(A, delta=delta))


def test_antipode_antimultiplicativity_broken_off_generators(double_s3):
    A = double_s3
    k1, k2 = _off_generators(A)[:2]
    s = list(A.s_idx)
    s[k1], s[k2] = s[k2], s[k1]
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): antipode anti-multiplicativity "
                             r"fails on basis pair \(\d+,\d+\)$"):
        verify_axioms(_fresh(A, s_idx=s))


# --- the tensor axioms, compared as integer multisets: one mutation each,
# --- on D(S3), that makes the axiom the first check to fail.  The right
# --- antipode axiom has none: it cannot fail first once the left one
# --- holds, as a one-sided convolution inverse of id in the
# --- finite-dimensional algebra End(A) under convolution is two-sided.

def _delta_with_term(A, k, t, term):
    """A.delta with term t of Delta(e_k) replaced."""
    delta = [list(terms) for terms in A.delta]
    delta[k][t] = term
    return delta


@pytest.mark.parametrize("t, term, message", [
    # Delta(p0h0) = sum_a p_{a^-1}h0 x p_a h0 starts with the term (0, 0)
    (0, (0, 6), "left counit axiom fails at p0h0"),
    (0, (1, 0), "right counit axiom fails at p0h0"),
    (2, (12, 13), "coassociativity fails at p0h0"),
])
def test_counit_and_coassociativity_axioms(double_s3, t, term, message):
    A = double_s3
    assert A.delta[0][t] != term
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(_fresh(A, delta=_delta_with_term(A, 0, t, term)))
    assert str(exc.value) == f"D(S3): {message}"


def test_delta_x_id_of_r_axiom(double_s3):
    A = double_s3
    r = list(A.r_terms)
    r[0] = (A.pair_index(1, 0), r[0][1])
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(_fresh(A, r_terms=r))
    assert str(exc.value) == "D(S3): (Delta x id)(R) = R13 R23 fails"


def test_id_x_delta_of_r_axiom(double_s3):
    # the second legs p_g x 1 of R relabelled by the permutation of S3
    # swapping 4 and 5, which is not an automorphism
    A = double_s3
    sigma = [0, 1, 2, 3, 5, 4]
    r = [(a, A.pair_index(sigma[b // A.group.n], 0)) for a, b in A.r_terms]
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(_fresh(A, r_terms=r))
    assert str(exc.value) == "D(S3): (id x Delta)(R) = R13 R12 fails"


def test_left_antipode_axiom(double_s3):
    # S after the automorphism tau(p_x h) = p_{txt^-1} tht^-1, t != 0:
    # still bijective, anti-multiplicative and counital, no longer the
    # convolution inverse of id
    A = double_s3
    G, t = A.group, 1

    def tau(k):
        x, h = divmod(k, G.n)
        return A.pair_index(G.conj(t, x), G.conj(t, h))
    s = [A.s_idx[tau(k)] for k in range(A.dim)]
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(_fresh(A, s_idx=s))
    assert str(exc.value) == "D(S3): left antipode axiom fails at p0h0"


def test_reach_check_fails_when_generators_miss_the_group_part(
        double_s3, monkeypatch):
    import hopfcat.hopf as hopf
    A = _fresh(double_s3)
    monkeypatch.setattr(hopf, "generators",
                        lambda A: [A.pair_index(g, 0) for g in range(A.group.n)])
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(A)
    assert str(exc.value) == "D(S3): generator reach fails at p0h1"


def test_generator_coproduct_legs_are_generators(doubles, triangular_s3):
    # the hypothesis of ad_escape's lemma for generators of a subalgebra
    for A in (doubles["S3"], doubles["D4"], doubles["Q8"], triangular_s3):
        gens = set(generators(A))
        assert all(i in gens and j in gens
                   for x in gens for i, j in A.delta[x]), A.name


def test_generator_legs_check_refuses_a_missing_leg(double_s3, monkeypatch):
    import hopfcat.hopf as hopf
    A = _fresh(double_s3)
    full = generators(double_s3)
    drop = full[-1]
    kept = full[:-1]
    monkeypatch.setattr(hopf, "generators", lambda A: kept)
    first = next(x for x in kept if any(drop in t for t in A.delta[x]))
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(A)
    assert str(exc.value) == (f"D(S3): generator coproduct legs fails at "
                              f"{A.labels[first]}")


def test_build_cache_keys_on_the_group_name():
    z2, s2 = parse_group_spec("Z2"), parse_group_spec("S2")
    assert z2.table == s2.table
    assert build_double(z2).name == "D(Z2)"
    assert build_double(s2).name == "D(S2)"
    assert build_triangular(z2).name == "k[Z2]"
    assert build_triangular(s2).name == "k[S2]"


def test_central_idempotents_checked_on_the_diagonal(double_s3):
    A = double_s3
    E = central_idempotents(A, [s.character for s in simple_objects(A)])
    # E_1 + E_2 is a central idempotent, but not orthogonal to E_2
    merged = list(E)
    merged[1] = row_addmul(E[1], E[2], ONE)
    assert mul_rows(A, merged[1], merged[1]) == merged[1]
    assert mul_rows(A, merged[1], E[2]) != {}
    with pytest.raises(InvariantViolation,
                       match="central idempotent sum fails") as exc:
        _check_central_idempotents(A, [], merged)
    assert str(exc.value) == "D(S3): central idempotent sum fails"
    doubled = list(E)
    doubled[2] = row_addmul(E[2], E[2], ONE)
    with pytest.raises(InvariantViolation,
                       match="central idempotent square fails") as exc:
        _check_central_idempotents(A, [], doubled)
    assert str(exc.value) == ("D(S3): central idempotent square fails on "
                              "idempotent 2")


def test_char_ring_idempotents_checked_on_the_diagonal(double_s3):
    A = double_s3
    chars = [s.character for s in simple_objects(A)]
    F = char_ring_idempotents(A, chars).idempotents
    _, t = integrals(A)
    merged = list(F)
    merged[1] = row_addmul(F[1], F[2], ONE)
    assert convolve(A, merged[1], merged[1]) == merged[1]
    assert convolve(A, merged[1], F[2]) != {}
    with pytest.raises(InvariantViolation) as exc:
        _check_char_ring_idempotents(A, chars, merged, t)
    assert str(exc.value) == ("D(S3): character-ring idempotent sum (eps) "
                              "fails")
    doubled = list(F)
    doubled[2] = row_addmul(F[2], F[2], ONE)
    with pytest.raises(InvariantViolation) as exc:
        _check_char_ring_idempotents(A, chars, doubled, t)
    assert str(exc.value) == ("D(S3): character-ring idempotent square fails "
                              "on F_2")


def test_trivial_r_matrix_is_rejected_by_intertwining_on_generators(
        double_s3):
    # R = 1 x 1, the terms (p_g x 1, p_h x 1), passes every other R-matrix
    # axiom; D(S3) is not cocommutative, so Delta^op(p_1 x 1) R differs
    # from R Delta(p_1 x 1) at a generator
    A = double_s3
    units = sorted(A.unit_row)
    broken = QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx,
                       A.delta, A.counit, A.s_idx,
                       [(g, h) for g in units for h in units], A.unit_row)
    with pytest.raises(InvariantViolation) as exc:
        verify_axioms(broken)
    assert str(exc.value) == ("D(S3): R intertwining of Delta^op and Delta "
                              "fails at p1h0")


def test_phi_table_missing_a_term_fails_multiplicativity(double_s3,
                                                         monkeypatch):
    # without its term (e_0^*, p0h0), phi(chi) stays central for every
    # character, but phi(chi_0 * e_k^*) != phi(chi_0) phi(e_k^*) at k = p1h0
    A = double_s3
    chars = [s.character for s in simple_objects(A)]
    ring = char_ring_idempotents(A, chars)
    dm = drinfeld_map(A)
    assert dm._phi[0] == (0, 0, ONE)
    monkeypatch.setattr(dm, "_phi", dm._phi[1:])
    with pytest.raises(InvariantViolation) as exc:
        verify_quasitriangular(A, chars, ring)
    assert str(exc.value) == ("D(S3): phi multiplicativity fails on "
                              "character 0 against p1h0^*")


# --- pair_eval: one reduction per pairing --------------------------------

def _chain_pair_eval(f, a):
    """Reference: the term-by-term chain acc = acc + c * v."""
    if len(f) > len(a):
        f, a = a, f
    acc = ZERO
    for k, c in f.items():
        v = a.get(k)
        if v:
            acc = acc + c * v
    return acc


# the first order of each family is the one drawn most often
_ORDER_FAMILIES = [(1, 2, 4, 8), (3, 9), (7,), (3, 2, 6), (3, 4, 12)]


@st.composite
def _pairing_rows(draw):
    """Two rows over one order family.  Often the first two products
    cancel to a rational (x and -x, or x and its conjugate, at the top
    order) before a term of lower order, the case where the stored order
    of the sum depends on the route."""
    orders = draw(st.sampled_from(_ORDER_FAMILIES))
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                             Fraction(-3, 4)])

    def value(n=None):
        n = n or draw(st.sampled_from(orders))
        terms = draw(st.dictionaries(st.integers(0, n - 1), coeff,
                                     min_size=1, max_size=2))
        return CycloNumber(n, terms)

    pairs = [(value(), value()) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        x = value(max(orders))
        partner = -x if draw(st.booleans()) else x.conjugate()
        pairs[:0] = [(x, ONE), (partner, ONE), (value(), ONE)]
    f = {k: c for k, (c, _) in enumerate(pairs) if c}
    a = {k: v for k, (_, v) in enumerate(pairs) if v}
    extra = {10 + k: value() for k in range(draw(st.integers(0, 2)))}
    (a if draw(st.booleans()) else f).update(extra)
    return f, a


_Z3, _Z4, _Z6 = CycloNumber.zeta(3), CycloNumber.zeta(4), CycloNumber.zeta(6)


@settings(max_examples=200, deadline=None)
@given(_pairing_rows())
@example(({0: _Z4, 1: -_Z4, 2: _Z3}, {0: ONE, 1: ONE, 2: ONE}))
@example(({0: _Z6, 1: _Z6.conjugate(), 2: _Z3}, {0: ONE, 1: ONE, 2: ONE}))
def test_pair_eval_stores_what_the_term_chain_stores(rows):
    f, a = rows
    assert pair_eval(f, a).to_json() == _chain_pair_eval(f, a).to_json()


def test_pair_eval_falls_back_to_the_chain_off_prime_powers():
    # one reduction at order 12 would store -1 + z(6); the chain stores z(3)
    f = {0: _Z4, 1: -_Z4, 2: _Z3}
    a = {0: ONE, 1: ONE, 2: ONE}
    assert pair_eval(f, a).to_json() == {"n": 3, "c": [[1, 1, 1]]}
    assert _chain_pair_eval(f, a).to_json() == {"n": 3, "c": [[1, 1, 1]]}
