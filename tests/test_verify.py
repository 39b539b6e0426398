import json

import pytest

from hopfcat.coideal import enumerate_coideals, quotient_dual
from hopfcat.hopf import drinfeld_map, subalgebra_generators
from hopfcat.verify import (SMOKE_CHECKS, _REGISTRY, _commutant, _commutes,
                            summarize, verify_identities)

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
    against the solved commutant of every coideal of D(D4)."""
    A = doubles["D4"]
    dm = drinfeld_map(A)
    verdicts = set()
    for L in enumerate_coideals(A):
        comm = _commutant(A, L.space.rows)
        gens = subalgebra_generators(A, L.space)
        dual = quotient_dual(A, L).rows
        probes = ([dm.f_r21(f) for f in dual] + [dm.f_r(f) for f in dual]
                  + [A.basis(k) for k in range(0, A.dim, 7)])
        for x in probes:
            got = _commutes(A, [x], gens)
            assert got == comm.contains(x), L.label()
            verdicts.add(got)
    assert verdicts == {True, False}
