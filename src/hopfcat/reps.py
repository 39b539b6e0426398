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
from .cyclo import CycloNumber, ONE, as_cyclo
from .errors import InvariantViolation, NoSplittingPair
from .groups import (Group, all_subgroups, commutator_subgroup,
                     exponent_tables, quotient_group, subgroup_generated)
from .linalg import Echelon, Row, acc

Matrix = tuple[tuple[CycloNumber, ...], ...]


def linear_characters(H: Group) -> list[tuple[CycloNumber, ...]]:
    """All degree-one characters as value tuples indexed by element."""
    full = subgroup_generated(H, list(range(H.n)))
    derived = commutator_subgroup(full)
    Q, coset_of = quotient_group(full, derived)
    gens, coords = exponent_tables(Q)
    out: list[tuple[CycloNumber, ...]] = []
    for choice in itertools.product(*[range(d) for _, d in gens]):
        on_q = []
        for q in range(Q.n):
            v = ONE
            for (_, d), r, e in zip(gens, choice, coords[q]):
                if (r * e) % d:
                    v = v * CycloNumber.zeta(d, (r * e) % d)
            on_q.append(v)
        out.append(tuple(on_q[coset_of[h]] for h in range(H.n)))
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
            acc = None
            for k in K.members:
                term = table.value_at(i, k) * psi[pos[k]].conjugate()
                acc = term if acc is None else acc + term
            mult = acc * as_cyclo(Fraction(1, K.order))
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
    raise NoSplittingPair(
        f"no subgroup/linear-character pair splits character {i} of {G.name}")


def _verify(G: Group, table: CharacterTable, i: int, mats: list[Matrix]) -> None:
    d = table.degrees[i]
    for r in range(d):
        for c in range(d):
            want = ONE if r == c else as_cyclo(0)
            if mats[0][r][c] != want:
                raise InvariantViolation(
                    f"{G.name}: identity does not map to identity matrix "
                    f"in character {i}")
    for g in range(G.n):
        tr = mats[g][0][0]
        for r in range(1, d):
            tr = tr + mats[g][r][r]
        if tr != table.value_at(i, g):
            raise InvariantViolation(
                f"{G.name}: trace mismatch at element {g} in character {i}")
    for a in range(G.n):
        for b in range(G.n):
            prod = mat_mul(mats[a], mats[b])
            if prod != mats[G.mul(a, b)]:
                raise InvariantViolation(
                    f"{G.name}: matrices of character {i} do not respect "
                    f"the group law at ({a},{b})")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for r in range(n):
        row = []
        for c in range(p):
            acc = a[r][0] * b[0][c]
            for t in range(1, m):
                acc = acc + a[r][t] * b[t][c]
            row.append(acc)
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
        raise InvariantViolation(
            f"{G.name}: ideal of character {i} has dimension {ech.dim}, "
            f"expected {d}")
    basis = ech.rows
    mats = []
    for g in range(G.n):
        cols = []
        for b in basis:
            c = ech.coords(_translate(G, g, b))
            if c is None:
                raise InvariantViolation(
                    f"{G.name}: translate by {g} left the ideal of "
                    f"character {i}")
            cols.append(c)
        mats.append(tuple(tuple(cols[c][r] for c in range(d)) for r in range(d)))
    _verify(G, table, i, mats)
    return mats
