"""coideal_product and coideal_intersect certify their answer against the
coideal catalog with a rank mod p, quotient_dual its direct route
against the shifted one, and coideal_integral a proposed integral; the
exact spans and nullspaces are the fallback.

Each test compares the answer with the exact route: the span of every
product l1 l2, the exact intersection, looked up in the catalog, the
exact nullspace of the direct route's equations, or the integral
solved exactly."""

import pytest

from hopfcat import build_double, coideal, parse_group_spec
from hopfcat.errors import InvariantViolation
from hopfcat.coideal import (CoidealSubalgebra, coideal_from_space,
                             coideal_intersect, coideal_product,
                             enumerate_coideals, quotient_dual)
from hopfcat.cyclo import ONE
from hopfcat.hopf import (QTAlgebra, counit_value, lmul,
                          subalgebra_generators)
from hopfcat.linalg import (Echelon, image_rank, intersect, nullspace,
                            rank_modp, row_addmul, rows_modp)


def _exact_product(A, L1, L2):
    return coideal_from_space(A, coideal._span_product(A, L1, L2))


def _exact_intersection(A, L1, L2):
    return coideal_from_space(A, intersect(L1.space, L2.space))


def _refuse(*args):
    raise AssertionError("the exact route ran")


def _no_images(rows):
    """rows_modp as if p divided a denominator of the rows."""
    return rows_modp(rows)[0], None


def _short(rows, form, stop):
    """image_rank one short of its rank."""
    return image_rank(rows, form, stop) - 1


def _no_rank(rows, form, stop):
    """image_rank as if p divided a denominator of the rows."""
    return None


def _direct_rank(A, gens):
    """The rank mod p of the direct route's equations over the images of
    gens, run to dim A, as quotient_dual certifies it."""
    return image_rank(gens, lambda im, p: coideal._direct_equations(
        A, im, coideal._counits_modp(A, im, p)), A.dim)


def _certified_answers(A, monkeypatch):
    """Product and intersection of every ordered catalog pair, with the
    exact route patched to fail."""
    with monkeypatch.context() as m:
        m.setattr(coideal, "_span_product", _refuse)
        m.setattr(coideal, "intersect", _refuse)
        cos = enumerate_coideals(A)
        return {(i, j): (coideal_product(A, L1, L2),
                         coideal_intersect(A, L1, L2))
                for i, L1 in enumerate(cos) for j, L2 in enumerate(cos)}


def _assert_certificates_match_exact_route(name, monkeypatch):
    A = build_double(parse_group_spec(name))
    got = _certified_answers(A, monkeypatch)
    cos = enumerate_coideals(A)
    for (i, j), (P, I) in got.items():
        L1, L2 = cos[i], cos[j]
        assert P is _exact_product(A, L1, L2), (name, i, j)
        assert I is _exact_intersection(A, L1, L2), (name, i, j)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ2"])
def test_certificates_carry_every_catalog_pair(name, monkeypatch):
    _assert_certificates_match_exact_route(name, monkeypatch)


@pytest.mark.large
@pytest.mark.parametrize("name", ["A4", "D6"])
def test_certificates_carry_every_catalog_pair_large(name, monkeypatch):
    _assert_certificates_match_exact_route(name, monkeypatch)


def _fallback_answers(A, monkeypatch, patches):
    """Every ordered catalog pair under patches, which must send some
    pairs down the exact route; the number of exact spans taken."""
    A._cache.pop(coideal._catalog.__wrapped__, None)
    calls = [0]
    span = coideal._span_product

    def counted(*args):
        calls[0] += 1
        return span(*args)
    cos = enumerate_coideals(A)
    with monkeypatch.context() as m:
        m.setattr(coideal, "_span_product", counted)
        for name, value in patches:
            m.setattr(coideal, name, value)
        got = {(i, j): (coideal_product(A, L1, L2),
                        coideal_intersect(A, L1, L2))
               for i, L1 in enumerate(cos) for j, L2 in enumerate(cos)}
    # the catalog built under the patches is dropped with them
    A._cache.pop(coideal._catalog.__wrapped__, None)
    return got, calls[0]


@pytest.mark.parametrize("patches", [
    [("rows_modp", _no_images)],
    [("rank_modp", lambda rows, p, target:
      rank_modp(rows, p, target) - 1)],
], ids=["prime-divides-a-denominator", "rank-one-short"])
def test_a_failed_certificate_takes_the_exact_route(patches, monkeypatch):
    A = build_double(parse_group_spec("S3"))
    want = _certified_answers(A, monkeypatch)
    got, spans = _fallback_answers(A, monkeypatch, patches)
    assert spans > 0
    assert got == want


def test_a_non_catalog_input_takes_the_exact_route(monkeypatch):
    """k^G # k<s> for a reflection s of S3 is a Hopf subalgebra of D(S3)
    but not a normal one, so it is no catalog entry; with k^G # k[A3] its
    product is D(S3) and its intersection k^G, both catalog entries."""
    A = build_double(parse_group_spec("S3"))
    G = A.group
    assert G.conj(3, 1) != 1 and G.mul(3, 3) == 4  # 1 a reflection, 3 a rotation

    def span(hs):
        return Echelon(A.dim, [{A.pair_index(g, h): ONE}
                               for g in range(G.n) for h in hs])
    K = CoidealSubalgebra(A, span((0, 1)), {})
    cos = enumerate_coideals(A)
    assert K.key() not in {L.key() for L in cos}
    by_key = {L.key(): L for L in cos}
    L = by_key[span((0, 3, 4)).key()]
    k_fun = by_key[span((0,)).key()]
    with monkeypatch.context() as m:
        m.setattr(coideal, "rank_modp", _refuse)
        assert coideal_product(A, K, L) is cos[-1]
        assert coideal_product(A, L, K) is cos[-1]
        assert coideal_intersect(A, K, L) is k_fun
        assert coideal_intersect(A, L, K) is k_fun
    assert cos[-1].dim == A.dim
    assert _exact_product(A, K, L) is cos[-1]
    assert _exact_intersection(A, K, L) is k_fun


def test_an_asymmetric_exact_product_is_refused(monkeypatch):
    """The exact route checks L1 L2 = L2 L1 below full dimension: with
    _span_product patched to keep only its left factor, the product of
    k^G # k<s> (no catalog entry) and k^G # k[A3] is refused."""
    A = build_double(parse_group_spec("S3"))
    G = A.group

    def span(hs):
        return Echelon(A.dim, [{A.pair_index(g, h): ONE}
                               for g in range(G.n) for h in hs])
    K = CoidealSubalgebra(A, span((0, 1)), {})
    L = next(L for L in enumerate_coideals(A)
             if L.key() == span((0, 3, 4)).key())
    monkeypatch.setattr(coideal, "_span_product", lambda A, a, b: a.space)
    with pytest.raises(InvariantViolation) as err:
        coideal_product(A, K, L)
    assert str(err.value) == ("D(S3): coideal product symmetry fails on "
                              f"L(dim=12) * {L.label()}")


def test_catalog_order_is_exact_containment():
    A = build_double(parse_group_spec("D4"))
    cat = coideal._catalog(A)
    for i, L1 in enumerate(cat.entries):
        for j, L2 in enumerate(cat.entries):
            assert cat.below[i][j] == (L1.space <= L2.space), (i, j)


# --- (A//L)*: the direct route certified mod p against the shifted one


def _exact_direct_route(A, L):
    """Reference: the nullspace of f(e_k l) = eps(l) f(e_k) over the
    generators l of L."""
    eqs = []
    for ell in subalgebra_generators(A, L.space):
        eps = counit_value(A, ell)
        for k in range(A.dim):
            row = row_addmul(lmul(A, k, ell), {k: ONE}, -eps)
            if row:
                eqs.append(row)
    return nullspace(eqs, A.dim)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_quotient_dual_certificate_carries_every_catalog_entry(
        name, monkeypatch):
    A = build_double(parse_group_spec(name))
    cos = enumerate_coideals(A)
    with monkeypatch.context() as m:
        m.setattr(coideal, "memo", lambda A, key, build: build())
        m.setattr(coideal, "nullspace", _refuse)
        got = [quotient_dual(A, L) for L in cos]
    for L, space in zip(cos, got):
        assert space == _exact_direct_route(A, L), (name, L.label())


@pytest.mark.parametrize("every, value", [
    (True, _short),
    (True, lambda rows, form, stop: image_rank(rows, form, stop) + 1),
    # no generators, as for k1, still have their (empty) images
    (False, lambda rows, form, stop:
     None if rows else image_rank(rows, form, stop)),
], ids=["rank-one-short", "rank-one-over", "prime-divides-a-denominator"])
def test_a_failed_quotient_dual_certificate_takes_the_exact_route(
        every, value, double_s3, monkeypatch):
    A = double_s3
    cos = enumerate_coideals(A)
    want = [quotient_dual(A, L) for L in cos]
    calls = [0]

    def counted(eqs, n):
        calls[0] += 1
        return nullspace(eqs, n)
    monkeypatch.setattr(coideal, "memo", lambda A, key, build: build())
    monkeypatch.setattr(coideal, "nullspace", counted)
    monkeypatch.setattr(coideal, "image_rank", value)
    assert [quotient_dual(A, L) for L in cos] == want
    # k1 has no generator, so no equation: no image mod p to refuse
    assert calls[0] == sum(1 for L in cos if every
                           or subalgebra_generators(A, L.space))


def test_quotient_dual_refuses_an_integral_of_another_coideal(double_s3,
                                                             monkeypatch):
    """L given the integral of another coideal K of its dimension: the
    shifted route is then (A//K)*, whose dimension is the one the rank
    mod p of L's equations certifies, so only the premise l Lambda =
    eps(l) Lambda on L's generators stops the certificate; the exact
    route runs and disagrees."""
    A = double_s3
    cos = enumerate_coideals(A)
    L, K = next((L, K) for L in cos for K in cos
                if K is not L and K.dim == L.dim)
    gens = subalgebra_generators(A, L.space)
    assert _direct_rank(A, gens) == A.dim - quotient_dual(A, K).dim
    bad = CoidealSubalgebra(A, L.space, K.integral, "L with K's integral")
    with pytest.raises(InvariantViolation) as err:
        quotient_dual(A, bad)
    assert str(err.value) == ("D(S3): agreement of the two (A//L)* routes "
                              "fails on L with K's integral")


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_direct_rank_forms_only_rows_that_can_be_nonzero(name):
    """With eps(l) = 0 mod p the direct route forms the equation of e_k
    only for the k with e_k e_j != 0 for some j in the support of l; its
    rank is that of every equation, formed over the whole basis."""
    A = build_double(parse_group_spec(name))
    for L in enumerate_coideals(A):
        gens = subalgebra_generators(A, L.space)
        p, images = rows_modp(gens)
        if not gens or images is None:
            continue
        rows = []
        for img in images:
            eps = sum(v for j, v in img.items() if A.counit[j])
            for k in range(A.dim):
                row = {m: v for j, v in img.items()
                       if (m := A.prod_idx[k][j]) >= 0}
                row[k] = row.get(k, 0) - eps
                rows.append(row)
        assert _direct_rank(A, gens) == rank_modp(rows, p, A.dim), (
            name, L.label())


def _nonzero_mod(rows, p):
    """The rows with their residues mod p, zero residues and then empty
    rows dropped."""
    out = []
    for row in rows:
        if reduced := {k: r for k, v in row.items() if (r := v % p)}:
            out.append(reduced)
    return out


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_equation_builders_commute_with_reduction_mod_p(name):
    """Reduction mod p is a ring map, checked on the equations: each
    builder, run over the images mod p of a coideal's generators and
    rows, yields the images of the equations it yields over the exact
    values, in the same order (rows that vanish mod p dropped on both
    sides)."""
    A = build_double(parse_group_spec(name))
    formed = 0
    for L in enumerate_coideals(A):
        gens = subalgebra_generators(A, L.space)
        rows = L.space.rows
        eps = [counit_value(A, ell) for ell in gens]
        integral = list(coideal._integral_equations(A, gens, rows, eps))
        direct = list(coideal._direct_equations(A, gens, eps))
        # one field for the inputs and the exact equations
        p, images = rows_modp(gens + rows + integral + direct)
        assert images is not None
        n1 = len(gens)
        n2 = n1 + len(rows)
        n3 = n2 + len(integral)
        g, r, i, d = images[:n1], images[n1:n2], images[n2:n3], images[n3:]
        eps_p = coideal._counits_modp(A, g, p)
        assert (_nonzero_mod(coideal._integral_equations(A, g, r, eps_p), p)
                == _nonzero_mod(i, p)), (name, L.label())
        assert (_nonzero_mod(coideal._direct_equations(A, g, eps_p), p)
                == _nonzero_mod(d, p)), (name, L.label())
        formed += len(integral) + len(direct)
    assert formed


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_triple_integrals_are_certified_without_a_nullspace(
        name, monkeypatch):
    """build_coideal proposes (1/|H|) sum over h in H and m in M of
    lambda(m, h) p_m x h; coideal_integral certifies it with no exact
    nullspace, and it is the exact route's integral, stored form too."""
    A = build_double(parse_group_spec(name))
    fresh = QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx,
                      A.delta, A.counit, A.s_idx, A.r_terms, A.unit_row)
    with monkeypatch.context() as m:
        m.setattr(coideal, "nullspace", _refuse)
        certified = enumerate_coideals(fresh)
    for L in certified:
        exact = coideal.coideal_integral(A, L.space, L.label, None)
        assert ({k: v.to_json() for k, v in L.integral.items()}
                == {k: v.to_json() for k, v in exact.items()}), L.label()


@pytest.mark.parametrize("defect", ["another-integral", "rank-one-short",
                                    "prime-divides-a-denominator"])
def test_a_failed_integral_certificate_takes_the_exact_route(
        defect, double_s3, monkeypatch):
    """A proposal that is another coideal's integral, a rank mod p one
    short of d - 1, or no image mod p: the exact nullspace runs once and
    gives the coideal's own integral."""
    A = double_s3
    cos = enumerate_coideals(A)
    L, K = next((L, K) for L in cos for K in cos
                if K is not L and K.dim == L.dim > 1)
    proposal = L.integral
    if defect == "another-integral":
        proposal = K.integral
    elif defect == "rank-one-short":
        monkeypatch.setattr(coideal, "image_rank", _short)
    else:
        monkeypatch.setattr(coideal, "image_rank", _no_rank)
    calls = [0]

    def counted(eqs, n):
        calls[0] += 1
        return nullspace(eqs, n)
    monkeypatch.setattr(coideal, "nullspace", counted)
    assert coideal.coideal_integral(A, L.space, L.label, proposal) == \
        L.integral
    assert calls[0] == 1
