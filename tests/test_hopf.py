import json
import random
from fractions import Fraction

import pytest

from hopfcat.cyclo import CycloNumber, as_cyclo
from hopfcat.errors import BoundExceeded, InvariantViolation, NoIntegral
from hopfcat.groups import parse_group_spec
from hopfcat.hopf import (
    DOUBLE_DIM_BOUND,
    QTAlgebra,
    _check_integrals,
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
    harpoon_left,
    harpoon_right,
    integrals,
    is_left_coideal,
    mul_rows,
    pair_eval,
    verify_axioms,
    verify_quasitriangular,
)
from hopfcat.fusion import simple_objects

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
    assert build_double(parse_group_spec("Z4"), max_dim=16).dim == 16
    assert DOUBLE_DIM_BOUND == 144


def test_axioms_all_catalog(doubles, triangular_s3):
    for A in doubles.values():
        verify_axioms(A, seed=1)
    verify_axioms(triangular_s3, seed=1)


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
                if g == G.mul(G.mul(h, g2), G.inverse(h)):
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
        with pytest.raises(NoIntegral, match="cointegral"):
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
    assert is_left_coideal(double_s3, K)
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
        verify_quasitriangular(A, chars, ring, seed=2)


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
