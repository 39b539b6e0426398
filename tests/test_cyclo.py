"""Exact cyclotomic arithmetic.

The layer-0 golden file tests/golden/cyclo_ops.json holds to_json, key,
sort_key and fmt_cyclo of every result of golden_records(); regenerate it
with ``PYTHONPATH=src python tests/test_cyclo.py`` only when a change of
those outputs is intended.
"""

import cmath
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfcat.cyclo import CycloNumber, as_cyclo, cyclotomic_polynomial, fmt_cyclo

GOLDEN_OPS = Path(__file__).parent / "golden" / "cyclo_ops.json"

ZERO = CycloNumber.rational(0)
ONE = CycloNumber.rational(1)


def _random_cyclo(rng, order):
    coeffs = {}
    for _ in range(rng.randrange(0, 4)):
        coeffs[rng.randrange(order)] = Fraction(rng.randrange(-5, 6),
                                                rng.randrange(1, 7))
    return CycloNumber(order, coeffs)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_zeta_relations():
    z3 = CycloNumber.zeta(3)
    assert z3 * z3 * z3 == ONE
    assert z3 * z3 + z3 + 1 == ZERO
    z4 = CycloNumber.zeta(4)
    assert z4 * z4 == CycloNumber.rational(-1)
    # zeta_6 = 1 + zeta_3 after reduction to a common order
    assert CycloNumber.zeta(6) == ONE + CycloNumber.zeta(3)


def test_order_normalization():
    # zeta_4^2 is rational even though built at order 4
    v = CycloNumber.zeta(4, 2)
    assert v.is_rational() and v.rational_value() == -1
    assert (CycloNumber.zeta(6) + CycloNumber.zeta(6, 5)).is_rational()


def test_ring_axioms_random():
    rng = random.Random(7)
    for order in (1, 2, 3, 4, 6, 8, 12):
        vals = [_random_cyclo(rng, order) for _ in range(6)]
        for a in vals:
            assert a + ZERO == a
            assert a * ONE == a
            assert a + (-a) == ZERO
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_mixed_order_arithmetic():
    a = CycloNumber.zeta(3)
    b = CycloNumber.zeta(4)
    s = a + b
    assert s - b == a
    assert (a * b) / b == a


def test_inverse_and_division():
    rng = random.Random(11)
    for order in (3, 4, 5, 8):
        for _ in range(6):
            a = _random_cyclo(rng, order)
            if not a:
                continue
            assert a * a.inverse() == ONE
            assert (ONE / a) * a == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_galois_is_automorphism():
    rng = random.Random(3)
    for _ in range(8):
        a = _random_cyclo(rng, 12)
        b = _random_cyclo(rng, 12)
        for k in (5, 7, 11):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    with pytest.raises(ValueError):
        CycloNumber.zeta(4).galois(2)


def test_conjugate_matches_complex():
    a = CycloNumber.zeta(8) + CycloNumber.rational(Fraction(1, 3))
    za = a.to_complex()
    zc = a.conjugate().to_complex()
    assert abs(za.conjugate() - zc) < 1e-12
    # |a|^2 is real (fixed by conjugation) and nonnegative
    n = a * a.conjugate()
    assert n.conjugate() == n
    assert abs(n.to_complex().imag) < 1e-12 and n.to_complex().real > 0


def test_to_complex():
    assert abs(CycloNumber.zeta(4).to_complex() - 1j) < 1e-12
    v = CycloNumber.zeta(3).to_complex()
    assert abs(v - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_json_round_trip():
    rng = random.Random(19)
    for order in (1, 6, 8, 12):
        for _ in range(5):
            a = _random_cyclo(rng, order)
            assert CycloNumber.from_json(a.to_json()) == a


def test_key_and_sort_key():
    a = CycloNumber.zeta(3)
    b = CycloNumber.zeta(6, 2)
    assert a == b
    assert a.key(6) == b.key(6)
    assert a.sort_key(6) == b.sort_key(6)
    with pytest.raises(ValueError):
        a.key(4)


def test_as_cyclo_coercion():
    assert as_cyclo(2) == CycloNumber.rational(2)
    assert as_cyclo(Fraction(1, 2)) * 2 == ONE
    with pytest.raises(TypeError):
        as_cyclo(1.5)


cyclos = st.builds(
    lambda order, terms: CycloNumber(order, dict(terms)),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(-30, 30),
                       st.fractions(-20, 20, max_denominator=12)), max_size=5))


def _assert_normal(x: CycloNumber) -> None:
    assert x.den > 0
    assert gcd(x.den, *x.nums.values()) == 1
    assert all(x.nums.values())
    assert all(0 <= e < len(cyclotomic_polynomial(x.order)) - 1 for e in x.nums)
    if x.order > 1:
        assert gcd(x.order, *x.nums) == 1


@settings(max_examples=150, deadline=None)
@given(cyclos, cyclos, st.integers(0, 11))
def test_results_are_in_normal_form(a, b, i):
    results = [a, a + b, a - b, a * b, -a, CycloNumber.from_json(a.to_json())]
    units = [k for k in range(1, a.order + 1) if gcd(k, a.order) == 1]
    results.append(a.galois(units[i % len(units)]))
    if a:
        results.append(a.inverse())
    if b:
        results.append(a / b)
    for x in results:
        _assert_normal(x)


def test_immutability():
    a = CycloNumber.zeta(3)
    with pytest.raises(AttributeError):
        a.order = 5


def test_fmt():
    assert fmt_cyclo(ZERO) == "0"
    assert fmt_cyclo(ONE) == "1"
    assert "z(3)" in fmt_cyclo(CycloNumber.zeta(3))
    assert fmt_cyclo(CycloNumber.rational(Fraction(-1, 2))) == "-1/2"


def _record(x: CycloNumber, m: int) -> dict:
    return {"json": x.to_json(), "key": list(map(list, x.key(m))),
            "sort_key": list(map(list, x.sort_key(m))), "fmt": fmt_cyclo(x)}


def golden_records() -> list:
    """Every operation on seeded operands at orders 1..12, with mixed-order
    pairs and the equal values zeta(3), zeta(12, 4) stored at orders 3, 6."""
    rng = random.Random(8)
    operands = [CycloNumber.zeta(3), CycloNumber.zeta(12, 4)]
    for order in range(1, 13):
        for _ in range(3):
            coeffs = {rng.randrange(-order, 2 * order):
                      Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
                      for _ in range(rng.randrange(1, 6))}
            operands.append(CycloNumber(order, coeffs))
    pairs = [(0, 1), (1, 0)]
    pairs += [(i, i + 1) for i in range(len(operands) - 1)]
    pairs += [(rng.randrange(len(operands)), rng.randrange(len(operands)))
              for _ in range(80)]
    out = []
    for i, a in enumerate(operands):
        m = 2 * a.order
        out.append({"op": "operand", "a": i, **_record(a, m)})
        for k in range(1, a.order + 1):
            if gcd(k, a.order) == 1:
                out.append({"op": f"galois {k}", "a": i,
                            **_record(a.galois(k), m)})
        if a:
            out.append({"op": "inverse", "a": i, **_record(a.inverse(), m)})
    for i, j in pairs:
        a, b = operands[i], operands[j]
        m = lcm(a.order, b.order)
        results = [("+", a + b), ("-", a - b), ("*", a * b)]
        if b:
            results.append(("/", a / b))
        for op, x in results:
            out.append({"op": op, "a": i, "b": j, "eq": a == b,
                        **_record(x, m)})
    return out


def test_golden_ops():
    want = json.loads(GOLDEN_OPS.read_text())
    got = golden_records()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    GOLDEN_OPS.write_text(json.dumps(golden_records(), separators=(",", ":"))
                          + "\n")
