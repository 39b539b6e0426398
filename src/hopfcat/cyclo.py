"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value of order n is stored as integer numerators over one positive
integer denominator,

    (1/den) * sum(nums[e] * zeta_n^e),

on the power basis {zeta_n^e : 0 <= e < phi(n)}, reduced modulo the n-th
cyclotomic polynomial.  The invariant: den > 0, gcd(den, *nums) == 1, no
numerator is zero, every exponent is below phi(n), and gcd(n, exponents)
== 1 when n > 1 (so rationals sit at order 1 and zero is order 1 with no
numerators).  Within a fixed order the representation is unique, so
equality of same-order values compares the numerators and denominators;
across orders both sides meet at the lcm first.

Every operation runs on plain ints: lift both sides to the lcm order,
multiply or add the numerators, reduce modulo Phi_m with the integer
power table of m, descend by g = gcd(m, exponents) when g > 1, then
divide out the content gcd(den, *nums).  Fractions appear only in the
conversions fmt_cyclo, to_complex and rational_value.  dot sums a list
of products with one reduction, where that stores what the term-by-term
sum stores (its docstring has the lemma).

The stored order depends on the path that built a value, not only on the
value: zeta(3) is stored at order 3 as z(3), but the equal zeta(12, 4)
reduces to -1 + z(6) at order 6, where the exponent 1 is coprime to 6 and
no descent applies.  to_json writes that order, so holding every value at
one ambient order instead would change serialized output.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

_cyclotomic_cache: dict[int, list[int]] = {}
_table_cache: dict[int, tuple[int, dict[int, tuple]]] = {}


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # ascending coefficients, den monic; remainder must vanish
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    _cyclotomic_cache[n] = poly
    return poly


def _tables(n: int) -> tuple[int, dict[int, tuple]]:
    """phi(n), and x^e mod Phi_n for phi(n) <= e < n as (i, c) pairs."""
    hit = _table_cache.get(n)
    if hit is not None:
        return hit
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1
    table: dict[int, tuple] = {}
    if deg < n:
        top = {i: -c for i, c in enumerate(poly[:deg]) if c}
        prev = top
        table[deg] = tuple(top.items())
        for e in range(deg + 1, n):
            nxt: dict[int, int] = {}
            for i, c in prev.items():
                if i + 1 == deg:
                    for j, t in top.items():
                        nxt[j] = nxt.get(j, 0) + c * t
                else:
                    nxt[i + 1] = nxt.get(i + 1, 0) + c
            prev = {i: c for i, c in nxt.items() if c}
            table[e] = tuple(prev.items())
    _table_cache[n] = deg, table
    return deg, table


def _reduce(m: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Normal order and numerators of nums (exponents in [0, m), any ints,
    the dict is consumed): reduce modulo Phi_m, drop zeros, then descend
    by g = gcd(m, exponents).  Since phi(g*k) <= g*phi(k), the descended
    exponents are already below phi(m/g), and their gcd with m/g is 1."""
    if m > 1:
        deg, table = _table_cache.get(m) or _tables(m)
        for e in [e for e in nums if e >= deg]:
            c = nums.pop(e)
            if c:
                for i, t in table[e]:
                    nums[i] = nums.get(i, 0) + c * t
    nums = {e: c for e, c in nums.items() if c}
    if not nums:
        return 1, nums
    if m > 1:
        g = gcd(m, *nums)
        if g > 1:
            m //= g
            nums = {e // g: c for e, c in nums.items()}
    return m, nums


def _make(order: int, nums: dict[int, int], den: int) -> "CycloNumber":
    """A CycloNumber from parts that already hold the invariant."""
    x = _new(CycloNumber)
    _set_order(x, order)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _result(m: int, nums: dict[int, int], den: int) -> "CycloNumber":
    """The normal form of (1/den) * sum(nums[e] zeta_m^e), den > 0."""
    order, nums = _reduce(m, nums)
    if not nums:
        return ZERO
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    return _make(order, nums, den)


def _rational(n: int, den: int) -> "CycloNumber":
    """The rational n/den, den > 0."""
    if not n:
        return ZERO
    if den > 1:
        g = gcd(n, den)
        if g > 1:
            n //= g
            den //= g
    return _make(1, {0: n}, den)


def _from_ratios(order: int, terms) -> "CycloNumber":
    """The value sum(a/b * zeta_order^e) over (e, a, b) terms."""
    if order < 1:
        raise ValueError("order must be positive")
    terms = list(terms)
    if any(not b for _, _, b in terms):
        raise ZeroDivisionError("zero denominator")
    terms = [(e, a, b) for e, a, b in terms if a]
    den = lcm(*(b for _, _, b in terms))
    nums: dict[int, int] = {}
    for e, a, b in terms:
        k = e % order
        nums[k] = nums.get(k, 0) + a * (den // b)
    return _result(order, nums, den)


class CycloNumber:
    """An element of Q(zeta_order), immutable once built."""

    __slots__ = ("order", "nums", "den")
    __hash__ = None  # equality crosses orders; key(order) serves dict use

    def __init__(self, order: int, coeffs: dict):
        x = _from_ratios(order, ((e, c.numerator, c.denominator)
                                 for e, c in coeffs.items()))
        _set_order(self, x.order)
        _set_nums(self, x.nums)
        _set_den(self, x.den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycloNumber is immutable")

    # --- constructors -------------------------------------------------
    @staticmethod
    def rational(q) -> "CycloNumber":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _rational(q.numerator, q.denominator)

    @staticmethod
    def zeta(n: int, e: int = 1) -> "CycloNumber":
        return _from_ratios(n, ((e, 1, 1),))

    # --- predicates ----------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational value")
        return Fraction(self.nums.get(0, 0), self.den)

    # --- arithmetic ----------------------------------------------------
    def __add__(self, other, sign: int = 1) -> "CycloNumber":
        """self + sign * other; __sub__ passes sign -1, so a difference
        builds no negated operand."""
        if other.__class__ is not CycloNumber:
            other = as_cyclo(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign > 0 else -other
        p, q = self.order, other.order
        da, db = self.den, other.den
        if da == db:
            den, sa, sb = da, 1, sign
        else:
            g = gcd(da, db)
            sa, sb = db // g, sign * (da // g)
            den = da * sa
        if p == q:
            if p == 1:
                return _rational(self.nums[0] * sa + other.nums[0] * sb, den)
            m, ka, kb = p, 1, 1
        else:
            m = lcm(p, q)
            ka, kb = m // p, m // q
        out = {e * ka: c * sa for e, c in self.nums.items()}
        for e, c in other.nums.items():
            e *= kb
            v = out.get(e)
            out[e] = c * sb if v is None else v + c * sb
        return _result(m, out, den)

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return _make(self.order, {e: -c for e, c in self.nums.items()},
                     self.den)

    def __sub__(self, other) -> "CycloNumber":
        # the same integer numerators as self + (-other), so the same form
        return _plus(self, other, -1)

    def __mul__(self, other) -> "CycloNumber":
        if other.__class__ is not CycloNumber:
            other = as_cyclo(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return ZERO
        p, q = self.order, other.order
        den = self.den * other.den
        if p == 1 or q == 1:
            # a rational factor scales the numerators: no reduction, no descent
            if p == 1:
                p, a, b = q, b, a
            s = b[0]
            if p == 1:
                return _rational(s * a[0], den)
            out = {e: s * c for e, c in a.items()}
            if den > 1:
                g = gcd(den, *out.values())
                if g > 1:
                    den //= g
                    out = {e: c // g for e, c in out.items()}
            return _make(p, out, den)
        if p == q:
            m, ka, kb = p, 1, 1
        else:
            m = lcm(p, q)
            ka, kb = m // p, m // q
        out: dict[int, int] = {}
        bl = [(e * kb, c) for e, c in b.items()]
        for e1, c1 in a.items():
            e1 *= ka
            for e2, c2 in bl:
                k = (e1 + e2) % m
                v = out.get(k)
                out[k] = c1 * c2 if v is None else v + c1 * c2
        return _result(m, out, den)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloNumber":
        """Apply zeta -> zeta^k; k must be coprime to the order."""
        n = self.order
        if n == 1:
            return self
        if gcd(k % n, n) != 1:
            raise ValueError("galois exponent not coprime to order")
        return _result(n, {(e * k) % n: c for e, c in self.nums.items()},
                       self.den)

    def conjugate(self) -> "CycloNumber":
        return self.galois(self.order - 1) if self.order > 1 else self

    def inverse(self) -> "CycloNumber":
        if not self.nums:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.order == 1:
            return _invert_rational(self)
        n = self.order
        prod = ONE
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = prod * self.galois(k)
        norm = self * prod
        if not norm.is_rational():
            raise ArithmeticError("field norm failed to be rational")
        return prod * _invert_rational(norm)

    def __truediv__(self, other) -> "CycloNumber":
        return self * as_cyclo(other).inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CycloNumber, int, Fraction)):
            return NotImplemented
        other = as_cyclo(other)
        if self.order == other.order:
            return self.den == other.den and self.nums == other.nums
        return not (self - other)

    # --- conversions ----------------------------------------------------
    def to_complex(self) -> complex:
        z = 0j
        for e, c in self.nums.items():
            z += float(Fraction(c, self.den)) * cmath.exp(2j * cmath.pi * e / self.order)
        return z

    def _nums_at(self, order: int) -> dict[int, int]:
        """The numerators of the normal form of self lifted to order."""
        if order % self.order:
            raise ValueError("key order must be a multiple of the value's order")
        if order == self.order or self.order == 1:
            return self.nums
        k = order // self.order
        return _reduce(order, {e * k: c for e, c in self.nums.items()})[1]

    def key(self, order: int) -> tuple:
        """Canonical hashable form at a common ambient order."""
        den = self.den
        return tuple(sorted((e, *_lowest(c, den))
                            for e, c in self._nums_at(order).items()))

    def sort_key(self, order: int) -> tuple:
        """Dense total-order key at a common ambient order."""
        nums, den = self._nums_at(order), self.den
        deg = _tables(order)[0]
        return tuple(_lowest(nums.get(e, 0), den) for e in range(deg))

    def to_json(self) -> dict:
        den = self.den
        return {"n": self.order,
                "c": [[e, *_lowest(c, den)] for e, c in sorted(self.nums.items())]}

    @staticmethod
    def from_json(obj: dict) -> "CycloNumber":
        terms = {e: (a, b) for e, a, b in obj["c"]}
        return _from_ratios(obj["n"], ((e, a, b) for e, (a, b) in terms.items()))

    def __repr__(self) -> str:
        return f"CycloNumber({fmt_cyclo(self)!r})"


_new = object.__new__
_plus = CycloNumber.__add__   # bound once: __sub__ passes a third argument
_set_order = CycloNumber.order.__set__
_set_nums = CycloNumber.nums.__set__
_set_den = CycloNumber.den.__set__


def _lowest(c: int, den: int) -> tuple[int, int]:
    """c/den in lowest terms, den > 0."""
    g = gcd(c, den)
    return c // g, den // g


def _invert_rational(x: CycloNumber) -> CycloNumber:
    c = x.nums[0]
    return _make(1, {0: x.den if c > 0 else -x.den}, abs(c))


def _prime_power(m: int) -> bool:
    """m = p^a for a prime p and a >= 0 (1 counts)."""
    p = next((d for d in range(2, m + 1) if m % d == 0), 1)
    while p > 1 and m % p == 0:
        m //= p
    return m == 1


def dot(pairs: list[tuple[CycloNumber, CycloNumber]]) -> CycloNumber:
    """sum(x * y for x, y in pairs), stored as the chain acc = acc + x * y
    from ZERO stores it, with one reduction instead of two per pair.

    Every term is lifted to m = lcm of the orders, the integer numerators
    of the products are summed over one common denominator, and _result
    runs once.  Its stored form is the chain's whenever the value is
    rational or m is a prime power; otherwise the chain runs instead.

    Lemma.  A normal form of order n is _result(n, its numerators), and
    every order on the chain divides m.  A rational value has one normal
    form at any order (order 1).  When m = p^a, every order on the chain
    is some n = p^b, and lifting to m multiplies the exponents (each
    below phi(p^b)) by p^(a-b), keeping them below phi(p^a): the lifted
    numerators are already reduced modulo Phi_m, and descent by their gcd
    with m returns exactly the order-n form.  Otherwise the forms can
    differ: zeta4 - zeta4 + zeta3 is z(3) at order 3 on the chain, but
    -1 + z(6) at order 6 after one reduction at 12.
    """
    if not pairs:
        return ZERO
    m = lcm(*{x.order for x, _ in pairs}, *{y.order for _, y in pairs})
    den = lcm(*{x.den * y.den for x, y in pairs})
    if m == 1:
        return _rational(sum(x.nums.get(0, 0) * y.nums.get(0, 0)
                             * (den // (x.den * y.den)) for x, y in pairs),
                         den)
    nums: dict[int, int] = {}
    for x, y in pairs:
        a, b = x.nums, y.nums
        if not a or not b:
            continue
        ka, kb = m // x.order, m // y.order
        s = den // (x.den * y.den)
        bl = [(e * kb, c * s) for e, c in b.items()]
        for e1, c1 in a.items():
            e1 *= ka
            for e2, c2 in bl:
                k = e1 + e2
                if k >= m:
                    k -= m
                v = nums.get(k)
                nums[k] = c1 * c2 if v is None else v + c1 * c2
    out = _result(m, nums, den)
    if out.order == 1 or _prime_power(m):
        return out
    out = ZERO
    for x, y in pairs:
        out = out + x * y
    return out


def as_cyclo(x) -> CycloNumber:
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNumber")


def fmt_cyclo(x: CycloNumber) -> str:
    """Render as 'a0 + a1*z(n)^e1 + ...' with ascending exponents."""
    if not x.nums:
        return "0"
    parts = []
    for e, n in sorted(x.nums.items()):
        c = Fraction(n, x.den)
        if e == 0:
            parts.append(str(c))
            continue
        zed = f"z({x.order})" if e == 1 else f"z({x.order})^{e}"
        if c == 1:
            parts.append(zed)
        elif c == -1:
            parts.append(f"-{zed}")
        else:
            parts.append(f"{c}*{zed}")
    return " + ".join(parts)


ZERO = _make(1, {}, 1)
ONE = _make(1, {0: 1}, 1)
