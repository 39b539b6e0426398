import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcat.cyclo import CycloNumber
from hopfcat.linalg import (
    Echelon,
    acc,
    apply_pairs,
    intersect,
    kron_rows,
    nullspace,
    rank,
    row_addmul,
    row_scale,
    rref,
    solve_linear,
    subspace_eq,
    subspace_key,
    subspace_le,
    tensor_index,
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
        r = rank(rows, n)
        red = rref(rows, n)
        assert len(red) == r
        assert subspace_eq(rows, red, n)


def test_nullspace_orthogonality():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randrange(2, 6)
        rows = [_random_row(rng, n) for _ in range(rng.randrange(1, 4))]
        null = nullspace(rows, n)
        assert rank(rows, n) + len(null) == n
        for v in null:
            for row in rows:
                s = sum((row[i] * v[i] for i in row if i in v),
                        CycloNumber.rational(0))
                assert s.is_zero()


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
    a = [_row((0, 1)), _row((1, 1))]
    b = [_row((1, 1)), _row((2, 1))]
    meet = intersect(a, b, 3)
    assert rank(meet, 3) == 1
    assert subspace_le(meet, a, 3) and subspace_le(meet, b, 3)


def test_subspace_key_is_basis_independent():
    a = [_row((0, 1), (1, 1)), _row((1, 2))]
    b = [_row((0, 3), (1, 3)), _row((0, 3), (1, 5))]
    assert subspace_eq(a, b, 2)
    assert subspace_key(a, 2) == subspace_key(b, 2)
    c = [_row((0, 1))]
    assert subspace_key(a, 2) != subspace_key(c, 2)


def test_tensor_index_and_kron():
    dim = 3
    assert tensor_index(1, 2, dim) == 5
    a = [_row((0, 1), (1, 1))]
    b = [_row((2, 2))]
    k = kron_rows(a, b, dim)
    assert len(k) == 1
    assert k[0] == {tensor_index(0, 2, dim): CycloNumber.rational(2),
                    tensor_index(1, 2, dim): CycloNumber.rational(2)}
