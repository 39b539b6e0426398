import dataclasses
import json

import pytest

from hopfcat import coideal, hopf
from hopfcat.coideal import (dual_coideal, enumerate_coideals,
                             is_normal_hopf_subalgebra, quotient_dual)
from hopfcat.cyclo import ONE
from hopfcat.errors import InternalMismatch, InvariantViolation
from hopfcat.hopf import drinfeld_map, subalgebra_generators
from hopfcat.linalg import Echelon, nullspace
from hopfcat.verify import (SMOKE_CHECKS, _REGISTRY, _Context,
                            _check_coinvariants, _check_drinfeld_laws,
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


def test_coinvariants_refuse_a_noncentral_idempotent(double_s3):
    # p_g (x) 1 is idempotent and, for g not central, not central: A L+ =
    # A (1 - e) would then be no two-sided ideal
    A = double_s3
    G = A.group
    g = next(g for g in range(G.n)
             if any(G.conj(x, g) != g for x in range(G.n)))
    cos = enumerate_coideals(A)
    assert all(_coinvariant_verdicts(A, cos))
    bad = [dataclasses.replace(L, integral={A.pair_index(g, 0): ONE})
           for L in cos]
    assert not any(_coinvariant_verdicts(A, bad))


def test_quotient_dual_refuses_a_dropped_row(double_s3, monkeypatch):
    # the (A//L)* basis with one row dropped fails the route agreement;
    # dropped from both routes, it fails the dimension check
    A = double_s3
    L = enumerate_coideals(A)[1]
    monkeypatch.setattr(coideal, "memo", lambda A, key, build: build())

    def dropped(space):
        return Echelon(space.ncols, space.rows[1:])
    monkeypatch.setattr(coideal, "nullspace",
                        lambda eqs, n: dropped(nullspace(eqs, n)))
    with pytest.raises(InternalMismatch, match="agreement of the two"):
        quotient_dual(A, L)
    monkeypatch.setattr(coideal, "Echelon",
                        lambda n, rows: dropped(Echelon(n, rows)))
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
