"""Exact matrix models of irreducible group representations.

The matrices are read off inside the group algebra: for an irreducible
character chi we build the rank-one idempotent f = E_chi * e_psi, where
psi is a linear character of a subgroup K occurring exactly once in the
restriction of chi.  The left ideal spanned by the translates g*f is
then a copy of the simple module, and expressing translates of its
echelon basis in that same basis yields exact matrix entries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chartab import CharacterTable
from .cyclo import CycloNumber, ONE, ZERO, as_cyclo, dot
from .errors import fail
from .groups import Group, Subgroup, abelian_coordinates, all_subgroups
from .linalg import Echelon, Row, acc

Matrix = tuple[tuple[CycloNumber, ...], ...]


def linear_characters(H: Group) -> list[tuple[CycloNumber, ...]]:
    """All degree-one characters as value tuples indexed by element."""
    orders, coords = abelian_coordinates(Subgroup(H, tuple(range(H.n))))
    out: list[tuple[CycloNumber, ...]] = []
    for choice in itertools.product(*[range(d) for d in orders]):
        values = []
        for h in range(H.n):
            v = ONE
            for d, r, e in zip(orders, choice, coords[h]):
                if (r * e) % d:
                    v = v * CycloNumber.zeta(d, (r * e) % d)
            values.append(v)
        out.append(tuple(values))
    return out


def _translate(G: Group, g: int, row: Row) -> Row:
    return {G.mul(g, x): v for x, v in row.items()}


def _mul_in_group_algebra(G: Group, a: Row, b: Row) -> Row:
    out: Row = {}
    for x, ax in a.items():
        for y, by in b.items():
            acc(out, G.mul(x, y), ax * by)
    return out


def _splitting_idempotent(G: Group, table: CharacterTable, i: int) -> Row:
    """Rank-one idempotent E_chi * e_psi for a multiplicity-one pair (K, psi)."""
    d = table.degrees[i]
    scale = as_cyclo(Fraction(d, G.n))
    central: Row = {}
    for g in range(G.n):
        v = scale * table.value_at(i, G.inv[g])
        if v:
            central[g] = v
    inv_one = ONE
    for K in all_subgroups(G):
        if K.order == 1:
            continue
        KG, pos = K.as_group()
        for psi in linear_characters(KG):
            mult = dot([(table.value_at(i, k), psi[pos[k]].conjugate())
                        for k in K.members]) * as_cyclo(Fraction(1, K.order))
            if mult != inv_one:
                continue
            ek: Row = {}
            for k in K.members:
                v = psi[pos[k]].conjugate() * as_cyclo(Fraction(1, K.order))
                if v:
                    ek[k] = v
            f = _mul_in_group_algebra(G, central, ek)
            if f:
                return f
    fail(G, "splitting pair existence", None, f"character {i}")


def _verify(G: Group, table: CharacterTable, i: int, mats: list[Matrix]) -> None:
    d = table.degrees[i]
    for r in range(d):
        for c in range(d):
            want = ONE if r == c else as_cyclo(0)
            if mats[0][r][c] != want:
                fail(G, "identity matrix at the identity", None,
                     f"character {i}")
    for g in range(G.n):
        tr = sum((mats[g][r][r] for r in range(1, d)), mats[g][0][0])
        if tr != table.value_at(i, g):
            fail(G, "trace = character value", None,
                 f"character {i} at element {g}")
    for a in range(G.n):
        for b in range(G.n):
            prod = mat_mul(mats[a], mats[b])
            if prod != mats[G.mul(a, b)]:
                fail(G, "group law", None,
                     f"matrices of character {i} at ({a},{b})")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, forming only the products of nonzero entries: module matrices
    are mostly zero, and the product is only compared with ==."""
    p = len(b[0])
    b_rows = [[(c, v) for c, v in enumerate(row) if v] for row in b]
    out = []
    for ar in a:
        row = [ZERO] * p
        for t, x in enumerate(ar):
            if x:
                for c, v in b_rows[t]:
                    row[c] = row[c] + x * v
        out.append(tuple(row))
    return tuple(out)


def matrix_irrep(G: Group, table: CharacterTable, i: int) -> list[Matrix]:
    """Exact matrices of the i-th irreducible, indexed by group element."""
    d = table.degrees[i]
    if d == 1:
        return [((table.value_at(i, g),),) for g in range(G.n)]
    f = _splitting_idempotent(G, table, i)
    ech = Echelon(G.n, (_translate(G, h, f) for h in range(G.n)))
    if ech.dim != d:
        fail(G, f"ideal dimension {ech.dim} = degree {d}", None,
             f"character {i}")
    basis = ech.rows
    mats = []
    for g in range(G.n):
        cols = []
        for b in basis:
            c = ech.coords(_translate(G, g, b))
            if c is None:
                fail(G, "translate stability of the ideal", None,
                     f"character {i} by element {g}")
            cols.append(c)
        mats.append(tuple(tuple(cols[c][r] for c in range(d)) for r in range(d)))
    _verify(G, table, i, mats)
    return mats
