import dataclasses
import json

import pytest

from hopfcat import (build_double, centralizer, coideal, fusion, hopf,
                     parse_group_spec, verify)
from hopfcat.coideal import (dual_coideal, enumerate_coideals,
                             is_normal_hopf_subalgebra, quotient_dual)
from hopfcat.cyclo import ONE, ZERO
from hopfcat.errors import InvariantViolation
from hopfcat.hopf import (ConjClass, convolve, drinfeld_map,
                          subalgebra_generators)
from hopfcat.linalg import Echelon, nullspace
from hopfcat.verify import (SMOKE_CHECKS, _REGISTRY, _Context,
                            _check_block_divisibility,
                            _check_centralizer_exchange,
                            _check_centralizer_membership,
                            _check_centralizing_pairs, _check_coinvariants,
                            _check_drinfeld_laws, _check_lattice_duality,
                            _coinvariants, _commutes, summarize,
                            verify_identities)

ALL_IDS = {cid for cid, _, _ in _REGISTRY}
FACTORIZABLE_IDS = {cid for cid, scope, _ in _REGISTRY if scope == "factorizable"}


def test_registry_shape():
    assert len(_REGISTRY) == 18
    assert SMOKE_CHECKS <= ALL_IDS
    assert len(ALL_IDS) == len(_REGISTRY)  # ids unique


def test_full_suite_s3(double_s3):
    report = verify_identities(double_s3, suite="full", seed=0)
    assert report["suite"] == "full"
    assert report["group"] == "S3"
    assert {c["id"] for c in report["checks"]} == ALL_IDS
    bad = [c for c in report["checks"] if not c["pass"]]
    assert bad == []
    # deterministic ordering and JSON-ready
    keys = [(c["id"], c["subject"]) for c in report["checks"]]
    assert keys == sorted(keys)
    json.dumps(report)


def test_seed_keyword_is_inert(double_s3):
    # no check samples: the keyword is accepted and changes nothing
    assert (verify_identities(double_s3, "full", seed=0)
            == verify_identities(double_s3, "full", seed=7))

def test_full_suite_small_doubles(doubles):
    for name in ("Z2", "Z3", "Z4"):
        report = verify_identities(doubles[name], suite="full")
        assert all(c["pass"] for c in report["checks"]), name


def test_smoke_suite(doubles):
    report = verify_identities(doubles["Z2"], suite="smoke")
    assert {c["id"] for c in report["checks"]} == set(SMOKE_CHECKS)
    assert all(c["pass"] for c in report["checks"])


def test_triangular_skips(triangular_s3):
    report = verify_identities(triangular_s3, suite="full")
    assert all(c["pass"] for c in report["checks"])
    skipped = {c["id"] for c in report["checks"]
               if c["detail"] == "skipped: needs factorizable"}
    assert skipped == FACTORIZABLE_IDS
    ran = {c["id"] for c in report["checks"] if c["id"] not in skipped}
    assert ran == ALL_IDS - FACTORIZABLE_IDS


def test_noncommutative_witnesses_s3(double_s3):
    # the twisted coideals give non-normal quotient maps; the coinvariant
    # equivalence must still hold for them
    report = verify_identities(double_s3, suite="full")
    coin = [c for c in report["checks"]
            if c["id"] == "normal-quotient-coinvariants"]
    assert len(coin) == 8
    nonnormal = [c for c in coin if "non-normal" in c["detail"]]
    assert len(nonnormal) == 2
    assert all(c["pass"] for c in coin)


def test_bad_suite_name(double_s3):
    with pytest.raises(ValueError):
        verify_identities(double_s3, suite="everything")


def test_summarize_format(doubles):
    report = verify_identities(doubles["Z2"], suite="smoke")
    text = summarize(report)
    lines = text.splitlines()
    assert "smoke suite" in lines[0]
    assert all(line.startswith("  ok   ") for line in lines[1:])
    assert "FAIL" not in text


def test_summarize_reports_failures():
    report = {"algebra": "X", "suite": "full",
              "checks": [{"id": "a", "subject": "s", "pass": False,
                          "detail": "boom"}]}
    text = summarize(report)
    assert "FAIL a" in text and "boom" in text


def test_commutant_membership_on_generators(doubles):
    """x commutes with L exactly when it commutes with the generators of L:
    the R-matrix legs that _check_coinvariants tests, and basis elements,
    against every reduced row of every coideal of D(D4)."""
    A = doubles["D4"]
    dm = drinfeld_map(A)
    verdicts = set()
    for L in enumerate_coideals(A):
        gens = subalgebra_generators(A, L.space)
        dual = quotient_dual(A, L).rows
        probes = ([dm.f_r21(f) for f in dual] + [dm.f_r(f) for f in dual]
                  + [A.basis(k) for k in range(0, A.dim, 7)])
        for x in probes:
            got = _commutes(A, [x], gens)
            assert got == _commutes(A, [x], L.space.rows), L.label()
            verdicts.add(got)
    assert verdicts == {True, False}


def _generator_verdicts_match_rows(A, pairs) -> set:
    """The set of _commutes verdicts over the pairs of coideals, asserting
    that generators and every reduced row give the same one."""
    verdicts = set()
    for L, M in pairs:
        got = _commutes(A, subalgebra_generators(A, L.space),
                        subalgebra_generators(A, M.space))
        assert got == _commutes(A, L.space.rows, M.space.rows), \
            (L.label(), M.label())
        verdicts.add(got)
    return verdicts


def test_commutation_on_generators_matches_every_row(doubles):
    """normal-pair-commutation and splitting-pairs read only generators."""
    A = doubles["S3"]
    cos = enumerate_coideals(A)
    assert _generator_verdicts_match_rows(
        A, [(L, M) for L in cos for M in cos]) == {True, False}
    A = doubles["D4"]
    normal = [L for L in enumerate_coideals(A)
              if is_normal_hopf_subalgebra(A, L)]
    assert normal
    _generator_verdicts_match_rows(
        A, [(L, dual_coideal(A, L)) for L in normal])


def _coinvariant_verdicts(A, cos) -> list[bool]:
    ctx = _Context(A)
    ctx.cos = cos
    return [ok for _, ok, _ in _check_coinvariants(ctx)]


def test_coinvariants_refuse_a_noncentral_idempotent(double_s3,
                                                     monkeypatch):
    # p_g (x) 1 is idempotent and, for g not central, not central: A L+ =
    # A (1 - e) would then be no two-sided ideal.  quotient_dual refuses
    # such an integral itself, so it is served the (A//L)* of the entry
    # with the same space, and the check's own verdict is read
    A = double_s3
    G = A.group
    g = next(g for g in range(G.n)
             if any(G.conj(x, g) != g for x in range(G.n)))
    cos = enumerate_coideals(A)
    assert all(_coinvariant_verdicts(A, cos))
    bad = [dataclasses.replace(L, integral={A.pair_index(g, 0): ONE})
           for L in cos]
    with pytest.raises(InvariantViolation, match="agreement of the two"):
        quotient_dual(A, bad[1])
    entry = {L.key(): L for L in cos}
    monkeypatch.setattr(verify, "quotient_dual",
                        lambda A, L: quotient_dual(A, entry[L.key()]))
    assert not any(_coinvariant_verdicts(A, bad))


def test_quotient_dual_refuses_a_dropped_row(double_s3, monkeypatch):
    # the shifted (A//L)* basis with one row dropped leaves the rank mod p
    # of the direct equations short of dim A - dim(shifted), so the exact
    # route runs and disagrees; dropped from both routes, it fails the
    # dimension check
    A = double_s3
    L = enumerate_coideals(A)[1]
    monkeypatch.setattr(coideal, "memo", lambda A, key, build: build())

    def dropped(space):
        return Echelon(space.ncols, space.rows[1:])
    monkeypatch.setattr(coideal, "Echelon",
                        lambda n, rows: dropped(Echelon(n, rows)))
    with pytest.raises(InvariantViolation, match="agreement of the two"):
        quotient_dual(A, L)
    monkeypatch.setattr(coideal, "nullspace",
                        lambda eqs, n: dropped(nullspace(eqs, n)))
    with pytest.raises(InvariantViolation, match=r"\(A//L\)\* dimension"):
        quotient_dual(A, L)


def test_coinvariants_read_the_right_coinvariants(double_s3, monkeypatch):
    """On a non-normal quotient map some f_R image fails to commute with
    the right coinvariants: with every image patched to 1 the check
    fails, and with one of them patched back to an element that does not
    commute with the right coinvariants it holds again."""
    A = double_s3
    dm = drinfeld_map(A)
    nonnormal = [L for L in enumerate_coideals(A)
                 if _coinvariants(A, quotient_dual(A, L), "right") != L.space]
    assert len(nonnormal) == 2
    for L in nonnormal:
        co_right = _coinvariants(A, quotient_dual(A, L), "right")
        x = next(A.basis(k) for k in range(A.dim)
                 if not _commutes(A, [A.basis(k)], co_right.rows))
        first = quotient_dual(A, L).rows[0]
        monkeypatch.setattr(dm, "f_r", lambda f: dict(A.unit_row))
        assert _coinvariant_verdicts(A, [L]) == [False]
        monkeypatch.setattr(
            dm, "f_r", lambda f: x if f is first else dict(A.unit_row))
        assert _coinvariant_verdicts(A, [L]) == [True]


def test_a_broken_drinfeld_law_is_one_failed_verdict(double_s3, monkeypatch):
    """verify_quasitriangular raises on the first law that fails; the
    check reports it as one failed verdict instead of raising."""
    ctx = _Context(double_s3)
    assert [ok for _, ok, _ in _check_drinfeld_laws(ctx)] == [True]
    # every phi(chi) now looks noncentral, with generator 0 as witness
    monkeypatch.setattr(hopf, "noncentral_generator", lambda A, z: 0)
    verdicts = list(_check_drinfeld_laws(ctx))
    assert len(verdicts) == 1
    subject, ok, detail = verdicts[0]
    assert (subject, ok) == ("D(S3)", False)
    assert detail.startswith("D(S3): phi-of-character centrality fails")


# Each check below is fed one corrupted input of its _Context and must
# report a failed verdict naming the subject and what went wrong.  The
# corruptions replace attributes of the context or names of the verify
# module; none writes into the per-algebra memo, which later tests read.


def _failures(check, ctx) -> list[tuple[str, bool, str]]:
    return [v for v in check(ctx) if not v[1]]


@pytest.fixture
def ctx_s3(double_s3):
    return _Context(double_s3)


@pytest.mark.parametrize("corrupt, detail", [
    ("coideal_product", "product vs meet fails against {}"),
    ("coideal_intersect", "intersection vs join fails against {}"),
], ids=["product", "intersection"])
def test_lattice_duality_fails_on_a_wrong_product_or_meet(
        ctx_s3, monkeypatch, corrupt, detail):
    """k1 (the first coideal) against the next one: the product returned
    as its left factor breaks the meet, the intersection returned as its
    right factor breaks the join."""
    assert not _failures(_check_lattice_duality, ctx_s3)
    monkeypatch.setattr(verify, corrupt, lambda A, L1, L2:
                        L1 if corrupt == "coideal_product" else L2)
    first, second = ctx_s3.cos[:2]
    assert _failures(_check_lattice_duality, ctx_s3)[0] == (
        first.label(), False, detail.format(second.label()))


def _swap_vec_and_full_centralizers(ctx, monkeypatch):
    """cent(Vec), which is everything, and cent(Rep A), which is Vec on a
    nondegenerate double, exchanged."""
    vec, full = ctx.subs[0].indices, ctx.full.indices
    cent = dict(ctx.cent)
    cent[vec], cent[full] = cent[full], cent[vec]
    monkeypatch.setattr(ctx, "cent", cent)


def test_centralizer_exchange_fails_on_swapped_centralizers(ctx_s3,
                                                            monkeypatch):
    assert not _failures(_check_centralizer_exchange, ctx_s3)
    _swap_vec_and_full_centralizers(ctx_s3, monkeypatch)
    vec, second = ctx_s3.subs[:2]
    # fpdim(Vec meet D') fpdim(D) against fpdim(Vec' meet D) fpdim(Vec)
    assert _failures(_check_centralizer_exchange, ctx_s3)[0] == (
        vec.label(), False, f"against {second.label()}: {second.fpdim} != 1")


def test_centralizer_membership_fails_on_swapped_centralizers(ctx_s3,
                                                              monkeypatch):
    """cent(Rep(A//k1)) = cent(Rep A) now claims every simple, while the
    block and left-kernel routes still find V0 alone."""
    assert not _failures(_check_centralizer_membership, ctx_s3)
    _swap_vec_and_full_centralizers(ctx_s3, monkeypatch)
    k1 = ctx_s3.cos[0]
    assert _failures(_check_centralizer_membership, ctx_s3)[0] == (
        k1.label(), False, "routes disagree on V1: True/False/False")


def test_block_divisibility_fails_on_a_block_outside_its_coideal(
        ctx_s3, monkeypatch):
    """Block 2, of dimension 2^2, claimed by every coideal: d_2 = 2 does
    not divide dim k1 = 1."""
    assert not _failures(_check_block_divisibility, ctx_s3)
    assert ctx_s3.classes[2].space.dim == 4
    monkeypatch.setattr(ctx_s3, "blocks_in", lambda L: {2})
    k1 = ctx_s3.cos[0]
    assert _failures(_check_block_divisibility, ctx_s3)[0] == (
        k1.label(), False, "d_2=2 does not divide 1")


def test_block_divisibility_fails_on_a_false_nondegenerate_quotient(
        ctx_s3, monkeypatch):
    """The first coideal holding block 2 has dimension 6: 2 divides it,
    but 2^2 must too once its quotient is called nondegenerate."""
    monkeypatch.setattr(ctx_s3, "nondegenerate", lambda indices: True)
    L = next(L for L in ctx_s3.cos if 2 in ctx_s3.blocks_in(L))
    assert L.dim == 6
    assert _failures(_check_block_divisibility, ctx_s3)[0] == (
        L.label(), False, "d_2^2=4 does not divide 6")


def test_block_divisibility_fails_on_a_non_square_block(ctx_s3, monkeypatch):
    classes = list(ctx_s3.classes)
    rows = classes[2].space.rows[:2]
    classes[2] = ConjClass(Echelon(ctx_s3.A.dim, rows), classes[2].class_sum)
    monkeypatch.setattr(ctx_s3, "classes", classes)
    L = next(L for L in ctx_s3.cos if 2 in ctx_s3.blocks_in(L))
    assert _failures(_check_block_divisibility, ctx_s3)[0] == (
        L.label(), False, "block 2 is not square")


def test_centralizing_pairs_fail_on_a_changed_smatrix_entry(ctx_s3,
                                                            monkeypatch):
    """s_01 set to 0: V0 = k still centralizes V1 by the four other
    routes, so the equivalences split.  An entry that is neither 0 nor
    d_i d_m set to 0 keeps them equivalent, but not the expansion of s
    through the block coefficients of the characters."""
    assert not _failures(_check_centralizing_pairs, ctx_s3)
    sm = ctx_s3.sm
    dims = ctx_s3.dims
    i, m = next((i, m) for i in range(ctx_s3.r) for m in range(ctx_s3.r)
                if sm.entries[i][m] not in (0, dims[i] * dims[m]))
    for (a, b), detail in [((0, 1), "equivalences split against V1"),
                           ((i, m), f"s-matrix expansion fails against V{m}")]:
        entries = [list(row) for row in sm.entries]
        entries[a][b] = ZERO
        monkeypatch.setattr(ctx_s3, "sm",
                            dataclasses.replace(sm, entries=entries))
        assert _failures(_check_centralizing_pairs, ctx_s3)[0] == (
            ctx_s3.simples[a].label(), False, detail)


class _WrongDim:
    """A coideal stand-in: the key of L, its dimension plus one."""

    def __init__(self, L):
        self.key, self.dim = L.key, L.dim + 1


def test_lattice_duality_fails_on_a_wrong_product_dimension(ctx_s3,
                                                            monkeypatch):
    """A product with the right index set but one dimension too many:
    the meet and the join still agree, the dimension identity does not,
    first on k1 against itself."""
    product = verify.coideal_product
    monkeypatch.setattr(verify, "coideal_product", lambda A, L1, L2:
                        _WrongDim(product(A, L1, L2)))
    k1 = ctx_s3.cos[0]
    assert _failures(_check_lattice_duality, ctx_s3)[0] == (
        k1.label(), False, f"dim 2*1 != 1*1 against {k1.label()}")


# --- lattice-duality's certificates -----------------------------------
# A certified product carries over to the pairs above it and a certified
# intersection to the pairs below it (coideal_product, coideal_intersect).
# The certified pairs live in the coideal catalog, so each test below
# starts from a fresh one and drops the one it leaves.


def _drop_catalog(A):
    """Drop the coideal catalog of A, and with it the certified pairs."""
    A._cache.pop(coideal._catalog.__wrapped__, None)


def _lattice_certificates(A, monkeypatch):
    """The certificates that lattice-duality forms on a fresh catalog of
    A, (i, j, answer) for the products and for the intersections, and
    its failed verdicts."""
    ctx = _Context(A)
    formed = {"_certified_product": [], "_certified_intersection": []}
    _drop_catalog(A)
    with monkeypatch.context() as m:
        for name, fn in [(n, getattr(coideal, n)) for n in formed]:
            def recorded(*args, name=name, fn=fn):
                answer = fn(*args)
                formed[name].append((*args[-3:-1], answer))
                return answer
            m.setattr(coideal, name, recorded)
        bad = _failures(_check_lattice_duality, ctx)
    return tuple(formed.values()), bad


@pytest.mark.parametrize("name, most", [
    ("D4", 252), ("Z2xZ2", 925),
    pytest.param("D6", 331, marks=pytest.mark.large),
    pytest.param("Z12", 934, marks=pytest.mark.large),
])
def test_lattice_duality_certifies_only_undominated_pairs(doubles, name,
                                                          most, monkeypatch):
    """Each incomparable pair took a certificate of each kind before the
    certified pairs carried over: 525 on D(D4), 1765 on D(Z2xZ2), 847 on
    D(D6) and 3060 on D(Z12)."""
    A = doubles.get(name) or build_double(parse_group_spec(name))
    (products, meets), bad = _lattice_certificates(A, monkeypatch)
    assert bad == []
    assert len(products) <= most and len(meets) <= most


def test_lattice_duality_fails_on_a_wrong_certificate_that_propagates(
        doubles, monkeypatch):
    """The certificate of the first product of D(D4) that carries over to
    another pair returns k1, the first entry: the pair it was asked for
    fails."""
    A = doubles["D4"]
    (products, _), bad = _lattice_certificates(A, monkeypatch)
    assert bad == []
    certified = {(i, j) for i, j, _ in products}
    cos = enumerate_coideals(A)
    le = [[L.space <= M.space for M in cos] for L in cos]
    a, b = next((a, b) for a, b, C in products if any(
        le[a][i] and le[b][j] and (i, j) not in certified
        and coideal.coideal_product(A, cos[i], cos[j]) is C
        for i in range(len(cos)) for j in range(i, len(cos))
        if not le[i][j] and not le[j][i]))
    certify = coideal._certified_product

    def wrong(A, cat, i, j, k):
        C = certify(A, cat, i, j, k)
        return cos[0] if (i, j) == (a, b) else C
    monkeypatch.setattr(coideal, "_certified_product", wrong)
    _drop_catalog(A)
    try:
        bad = _failures(_check_lattice_duality, _Context(A))
    finally:
        _drop_catalog(A)
    assert bad[0] == (cos[a].label(), False,
                      f"product vs meet fails against {cos[b].label()}")


def test_lattice_duality_fails_on_a_flipped_containment(doubles):
    """The first incomparable pair x, y of D(D4), x of smaller dimension,
    set to x <= y in a fresh catalog order: the propagation and the
    certificates read that order, and lattice-duality fails on x."""
    A = doubles["D4"]
    ctx = _Context(A)
    _drop_catalog(A)
    cat = coideal._catalog(A)
    cos = cat.entries
    x, y = next((x, y) for x in range(len(cos)) for y in range(len(cos))
                if cos[x].dim < cos[y].dim and not cat.up[x] >> y & 1)
    cat.up[x] |= 1 << y
    cat.down[y] |= 1 << x
    try:
        bad = _failures(_check_lattice_duality, ctx)
    finally:
        _drop_catalog(A)
    assert cos[x].label() in {subject for subject, _, _ in bad}


def _join_by_sets(subs, a, b) -> tuple[int, ...]:
    """Reference: the first least-fpdim subcategory containing a and b,
    by a scan of their index sets."""
    want = set(a) | set(b)
    best = None
    for D in subs:
        if want <= set(D.indices) and (best is None or D.fpdim < best.fpdim):
            best = D
    return best.indices


@pytest.mark.parametrize("name", ["D(D4)", "k[S3]"])
def test_join_is_the_least_superset_of_the_set_scan(
        doubles, triangular_s3, name):
    A = triangular_s3 if name == "k[S3]" else doubles["D4"]
    ctx = _Context(A)
    for D in ctx.subs:
        for E in ctx.subs:
            assert ctx.join(D.indices, E.indices) == _join_by_sets(
                ctx.subs, D.indices, E.indices)


def test_blocks_in_reads_the_classes_centralizer_memo(monkeypatch):
    """centralizer(..., "classes") fills the blocks memo of a fresh
    algebra, and _Context.blocks_in reads it: with the character ring,
    which holds the class spans, out of fusion's reach, it still answers
    for every coideal."""
    A = build_double(parse_group_spec("S3"))
    for D in fusion.subcat_table(A).values():
        centralizer(A, D, "classes")
    ctx = _Context(A)
    monkeypatch.setattr(fusion, "char_ring", None)
    for L in ctx.cos:
        assert ctx.blocks_in(L) == {j for j, cls in enumerate(ctx.classes)
                                    if cls.space <= L.space}


@pytest.mark.parametrize("name, group, want", [
    ("D(S3)", "S3", 64), ("D(D4)", "D4", 484), ("k[S3]", "S3", 9),
    pytest.param("D(Z12)", "Z12", 20736, marks=pytest.mark.large),
])
def test_centralizing_pairs_form_each_product_once(doubles, triangular_s3,
                                                   name, group, want,
                                                   monkeypatch):
    """convolve runs r * nblocks times inside _check_centralizing_pairs,
    once per chi_m * F_j; forming them again for c2 and c3 made 192,
    1,452, 27 and 62,208."""
    if name == "k[S3]":
        A = triangular_s3
    else:
        A = doubles.get(group) or build_double(parse_group_spec(group))
    ctx = _Context(A)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return convolve(*args)
    monkeypatch.setattr(verify, "convolve", counted)
    assert not _failures(_check_centralizing_pairs, ctx)
    assert calls[0] == want == ctx.r * len(ctx.ring.idempotents)
