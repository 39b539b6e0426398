import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hopfcat.cyclo import CycloNumber
from hopfcat.linalg import (
    Echelon,
    acc,
    apply_pairs,
    find_prime,
    intersect,
    kernel_modp,
    modular_field,
    nullspace,
    primitive_root_of_unity,
    rank_modp,
    row_addmul,
    row_modp,
    row_rank,
    row_scale,
    solve_linear,
)

ONE = CycloNumber.rational(1)


def _row(*pairs):
    return {i: CycloNumber.rational(v) for i, v in pairs}


def _random_row(rng, ncols, order=4):
    row = {}
    for _ in range(rng.randrange(1, 4)):
        row[rng.randrange(ncols)] = CycloNumber(
            order, {rng.randrange(order): Fraction(rng.randrange(-3, 4))})
    return {i: v for i, v in row.items() if v}


def test_row_ops():
    a = _row((0, 1), (2, 3))
    assert row_scale(a, CycloNumber.rational(2)) == _row((0, 2), (2, 6))
    assert row_scale(a, CycloNumber.rational(0)) == {}
    b = row_addmul(a, _row((2, -3), (5, 1)), ONE)
    assert b == _row((0, 1), (5, 1))

    row = _row((0, 1))
    acc(row, 3, CycloNumber.rational(2))  # new key
    assert row == _row((0, 1), (3, 2))
    acc(row, 0, CycloNumber.rational(4))  # existing key
    assert row == _row((0, 5), (3, 2))
    acc(row, 3, CycloNumber.rational(-2))  # exact cancellation
    assert row == _row((0, 5)) and 3 not in row
    acc(row, 7, CycloNumber.zeta(3))
    acc(row, 7, CycloNumber.zeta(3, 2))
    assert row[7] == CycloNumber.rational(-1)
    acc(row, 7, ONE)  # zeta3 + zeta3^2 + 1 = 0
    assert row == _row((0, 5))

    # the table of [[1, 0, 2], [0, 0, 0], [3, -1, 0]], rows dst, columns src
    two, three = CycloNumber.rational(2), CycloNumber.rational(3)
    table = [(0, 0, ONE), (2, 0, two), (0, 2, three), (1, 2, -ONE)]
    assert apply_pairs(table, _row((0, 1), (1, 3), (2, 5))) == \
        _row((0, 11))  # dst 2 cancels: 3*1 - 1*3 = 0
    assert apply_pairs(table, _row((1, 2))) == _row((2, -2))
    assert apply_pairs(table, {}) == {}


def test_echelon_insert_reduce_contains():
    ech = Echelon(4)
    assert ech.insert(_row((0, 1), (1, 2)))
    assert ech.insert(_row((1, 1)))
    assert not ech.insert(_row((0, 2), (1, 4)))  # dependent
    assert ech.dim == 2
    assert ech.contains(_row((0, 5), (1, -1)))
    assert not ech.contains(_row((2, 1)))
    assert ech.reduce(_row((0, 1), (2, 1))) == _row((2, 1))


def test_echelon_from_rows_is_one_space():
    rows = [_row((0, 1), (1, 2)), _row((1, 1), (3, 1)), _row((0, 2), (1, 4)),
            _row((2, 3))]
    ech = Echelon(4, rows)
    one_by_one = Echelon(4)
    for r in rows:
        one_by_one.insert(r)
    assert ech == one_by_one and ech.pivots == one_by_one.pivots
    # another spanning set of the same space, inserted in another order
    other = Echelon(4, [_row((2, 1)), _row((0, 1), (1, 3), (3, 1)),
                        _row((1, 1), (3, 1)), _row((1, 3), (3, 3))])
    assert other == ech and other.key() == ech.key()
    assert other.rows == ech.rows and other.dim == ech.dim == 3
    sub = Echelon(4, [_row((2, 5)), _row((0, 1), (1, 2))])
    assert sub <= ech and not ech <= sub and sub != ech
    assert Echelon(3, rows[:1]) != Echelon(4, rows[:1])  # other ambient space
    with pytest.raises(TypeError):
        hash(ech)


def test_echelon_key_follows_a_growing_insert():
    """key() is kept between reads and dropped when an insert grows the
    space, so a key read after a growing insert is the key of a fresh
    Echelon on the same rows."""
    rows = [_row((0, 1), (1, 2)), _row((1, 1), (3, 1)), _row((2, 3))]
    ech = Echelon(4, rows[:1])
    before = ech.key()
    assert not ech.insert(_row((0, 2), (1, 4)))  # dependent: key kept
    assert ech.key() is before
    for k in (2, 3):
        assert ech.insert(rows[k - 1])
        assert ech.key() == Echelon(4, rows[:k]).key() != before
        before = ech.key()


_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), _entries, min_size=1,
                                max_size=3), min_size=1, max_size=5),
       st.randoms(use_true_random=False))
def test_echelon_insertion_order_is_invisible(raw, rnd):
    rows = [{j: CycloNumber.rational(v) for j, v in r.items() if v}
            for r in raw]
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    a, b = Echelon(5, rows), Echelon(5, shuffled)
    assert a.rows == b.rows and a.key() == b.key() and a == b


def test_echelon_coords():
    ech = Echelon(3)
    v1 = _row((0, 1), (1, 1))
    v2 = _row((1, 1), (2, 1))
    ech.insert(v1)
    ech.insert(v2)
    target = _row((0, 2), (1, 3), (2, 1))
    coords = ech.coords(target)
    assert coords is not None
    rebuilt = {}
    for c, basis in zip(coords, ech.rows):
        rebuilt = row_addmul(rebuilt, basis, c)
    assert rebuilt == target
    assert ech.coords(_row((0, 1))) is None


def test_rank_and_rref_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 6)
        rows = [_random_row(rng, n) for _ in range(rng.randrange(1, 5))]
        ech = Echelon(n, rows)
        assert len(ech.rows) == ech.dim
        assert Echelon(n, ech.rows) == ech


def test_nullspace_orthogonality():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randrange(2, 6)
        rows = [_random_row(rng, n) for _ in range(rng.randrange(1, 4))]
        null = nullspace(rows, n)
        assert Echelon(n, rows).dim + null.dim == n
        for v in null.rows:
            for row in rows:
                s = sum((row[i] * v[i] for i in row if i in v),
                        CycloNumber.rational(0))
                assert not s


def test_solve_linear():
    rows = [_row((0, 1), (1, 1)), _row((1, 1), (2, 1))]
    rhs = [CycloNumber.rational(3), CycloNumber.rational(5)]
    x = solve_linear(rows, 3, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        s = sum((c * x.get(i, CycloNumber.rational(0)) for i, c in row.items()),
                CycloNumber.rational(0))
        assert s == b
    bad = solve_linear([_row((0, 1)), _row((0, 2))], 2,
                       [ONE, CycloNumber.rational(3)])
    assert bad is None


def test_intersect():
    a = Echelon(3, [_row((0, 1)), _row((1, 1))])
    b = Echelon(3, [_row((1, 1)), _row((2, 1))])
    meet = intersect(a, b)
    assert meet.dim == 1
    assert meet <= a and meet <= b


def test_subspace_key_is_basis_independent():
    a = [_row((0, 1), (1, 1)), _row((1, 2))]
    b = [_row((0, 3), (1, 3)), _row((0, 3), (1, 5))]
    assert Echelon(2, a) == Echelon(2, b)
    assert Echelon(2, a).key() == Echelon(2, b).key()
    c = [_row((0, 1))]
    assert Echelon(2, a).key() != Echelon(2, c).key()


def _spaces(count):
    """n <= 5 columns and count lists of small rational rows over them."""
    def rows(n):
        return st.lists(st.dictionaries(st.integers(0, n - 1), _entries,
                                        min_size=1, max_size=3), max_size=5)
    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), *[rows(n).map(_rational) for _ in range(count)]))


def _rational(raw):
    return [{j: CycloNumber.rational(v) for j, v in r.items() if v}
            for r in raw]


@settings(max_examples=40, deadline=None)
@given(_spaces(2))
def test_intersect_is_the_meet(case):
    n, raw_x, raw_y = case
    x, y = Echelon(n, raw_x), Echelon(n, raw_y)
    meet = intersect(x, y)
    assert meet <= x and meet <= y
    assert meet == intersect(y, x)
    # Grassmann: dim x + dim y = dim (x & y) + dim (x + y)
    assert x.dim + y.dim == meet.dim + Echelon(n, x.rows + y.rows).dim


@settings(max_examples=40, deadline=None)
@given(_spaces(1))
def test_nullspace_is_the_annihilator(case):
    n, rows = case
    null = nullspace(rows, n)
    for v in null.rows:
        for row in rows:
            s = sum((row[i] * v[i] for i in row if i in v),
                    CycloNumber.rational(0))
            assert not s
    assert null.dim + Echelon(n, rows).dim == n


def _walked_prime(modulus, lower):
    """Reference: every p = 1 (mod modulus) from modulus + 1 upwards."""
    p = modulus + 1
    while p <= lower or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += modulus
    return p


@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 6, 8, 12, 24, 35])
@pytest.mark.parametrize("lower", [0, 1, 2, 6, 12, 35, 100, 143])
def test_find_prime_starts_at_the_first_admissible_residue(modulus, lower):
    assert find_prime(modulus, lower) == _walked_prime(modulus, lower)


def test_find_prime_above_two_to_the_twenty():
    p = find_prime(12, 1 << 20)
    assert p > 1 << 20 and p % 12 == 1
    assert p == _walked_prime(12, 1 << 20)


def test_primitive_root_of_unity_has_exact_order():
    for n in (1, 2, 3, 4, 6, 8, 12):
        p = find_prime(n, 100)
        w = primitive_root_of_unity(p, n)
        assert pow(w, n, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, n))


def test_kernel_modp():
    p = 7
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    ker = kernel_modp(mat, p)
    assert len(ker) == 1
    assert all(sum(a * b for a, b in zip(r, ker[0])) % p == 0 for r in mat)


def _images(rows, p, w, n):
    return [row_modp(r, p, w, n) for r in rows]


def test_row_modp_is_a_ring_map():
    rng = random.Random(11)
    n = 12
    p = find_prime(n, 1 << 20)
    w = primitive_root_of_unity(p, n)
    for _ in range(40):
        order = rng.choice((1, 2, 3, 4, 6, 12))
        x, y = (CycloNumber(order, {rng.randrange(order): Fraction(
            rng.randrange(-5, 6), rng.randrange(1, 5))}) for _ in range(2))
        fx, fy = (row_modp({0: v}, p, w, n).get(0, 0) if v else 0
                  for v in (x, y))
        for value, want in ((x * y, fx * fy), (x + y, fx + fy)):
            got = row_modp({0: value}, p, w, n).get(0, 0) if value else 0
            assert got == want % p


def test_row_modp_refuses_a_denominator_divisible_by_p():
    p = find_prime(4, 10)
    w = primitive_root_of_unity(p, 4)
    assert row_modp({0: CycloNumber.rational(Fraction(1, p))}, p, w, 4) is None
    assert row_modp({0: CycloNumber.rational(Fraction(1, 2 * p)),
                     1: ONE}, p, w, 4) is None
    assert row_modp({0: CycloNumber.rational(Fraction(3, 2))}, p, w, 4) \
        == {0: 3 * pow(2, -1, p) % p}


def test_rank_modp_matches_the_exact_rank_and_stops_at_target():
    rng = random.Random(7)
    n = 4
    p = find_prime(n, 1 << 20)
    w = primitive_root_of_unity(p, n)
    for _ in range(30):
        ncols = rng.randrange(2, 7)
        rows = [_random_row(rng, ncols) for _ in range(rng.randrange(1, 8))]
        dim = Echelon(ncols, rows).dim
        images = _images(rows, p, w, n)
        assert rank_modp(images, p, ncols) == dim
        read = []

        def lazily():
            for r in images:
                read.append(r)
                yield r
        assert rank_modp(lazily(), p, 1) == 1
        assert len(read) == next(i for i, r in enumerate(images) if r) + 1


def test_rank_modp_drops_zero_residues():
    assert rank_modp([{0: 7, 1: 3}, {0: 14, 1: 6}, {1: 7}], 7, 3) == 1


def test_modular_field_reads_the_common_order():
    rows = [{0: CycloNumber.zeta(3)}, {1: CycloNumber.zeta(4), 2: ONE}]
    p, w, n = modular_field(rows)
    assert n == 12 and p == find_prime(12, 1 << 20)
    assert w == primitive_root_of_unity(p, 12)
    assert modular_field([])[2] == 1


@st.composite
def _cyclo_matrices(draw):
    """A few rows over Q(zeta_order), some of them combinations of the
    others, so that rank-deficient matrices are common."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from([1, 3, 4, 12]))
    value = st.builds(lambda e, q: CycloNumber(order, {e: q}),
                      st.integers(0, order - 1), _entries)
    base = [{j: v for j, v in r.items() if v}
            for r in draw(st.lists(st.dictionaries(
                st.integers(0, n - 1), value, max_size=3), max_size=4))]
    rows = list(base)
    for coeffs in draw(st.lists(st.lists(value, min_size=len(base),
                                         max_size=len(base)), max_size=3)):
        combo = {}
        for c, r in zip(coeffs, base):
            combo = row_addmul(combo, r, c)
        rows.append(combo)
    return n, draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(_cyclo_matrices())
def test_row_rank_is_the_exact_rank(case):
    n, rows = case
    assert row_rank(rows, n) == Echelon(n, rows).dim


def test_row_rank_refuses_a_prime_that_divides_a_denominator():
    p, _, _ = modular_field([])
    rows = [{0: CycloNumber.rational(Fraction(1, p))}, {1: ONE}]
    assert row_rank(rows, 2) == 2
