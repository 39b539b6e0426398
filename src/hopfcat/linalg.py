"""Exact sparse linear algebra over cyclotomic scalars.

Vectors are dicts mapping column index to a nonzero CycloNumber.  The
workhorse is an incremental reduced row echelon form: since RREF of a
subspace is unique, two subspaces are equal iff their echelon rows are
equal, which gives cheap canonical keys for deduplication.

Sparse accumulation goes through two helpers: acc adds one term into a
row, and apply_pairs applies a fixed (src, dst, coeff) table to a vector.
The hot kernels keep their loops inline, as a call per term costs
measurably there: row_addmul under every Echelon reduction, hopf.mul_rows
under every product, and hopf.convolve, run r^2 times per fusion table
and once per basis functional in the character ring and class spans.
Accumulation order is part of the output, since the stored order of a
CycloNumber depends on its chain of adds.
"""

from __future__ import annotations

from math import lcm

from .cyclo import CycloNumber, ZERO, ONE

Row = dict[int, CycloNumber]


def acc(row: dict, k, c: CycloNumber) -> None:
    """row[k] += c in place, dropping the key on an exact zero."""
    w = row.get(k)
    s = c if w is None else w + c
    if s:
        row[k] = s
    else:
        row.pop(k, None)


def apply_pairs(table, vec: Row) -> Row:
    """Sum of c * vec[src] at index dst over the (src, dst, c) table
    entries, accumulated in table order."""
    out: Row = {}
    for src, dst, c in table:
        v = vec.get(src)
        if v:
            acc(out, dst, c * v)
    return out


def row_scale(row: Row, c: CycloNumber) -> Row:
    if not c:
        return {}
    return {j: c * v for j, v in row.items()}


def row_addmul(row: Row, other: Row, c: CycloNumber) -> Row:
    """row + c*other, dropping exact zeros."""
    # hot kernel: kept inline, as a call to acc per term costs a few percent
    if not c:
        return dict(row)
    out = dict(row)
    for j, v in other.items():
        w = out.get(j)
        s = c * v if w is None else w + c * v
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


class Echelon:
    """Incrementally maintained reduced row echelon form."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Residual of row after elimination against current pivots."""
        # pivot rows are fully reduced (zero at every other pivot column),
        # so one ascending pass over the initial hits is enough
        out = dict(row)
        pv = self.pivots
        for j in sorted(c for c in row if c in pv):
            c = out.get(j)
            if c:
                out = row_addmul(out, pv[j], -c)
        return out

    def insert(self, row: Row) -> bool:
        """Add a row; returns True if the rank grew."""
        res = self.reduce(row)
        if not res:
            return False
        p = min(res.keys())
        inv = res[p].inverse()
        res = {j: inv * v for j, v in res.items()}
        for q, existing in self.pivots.items():
            if p in existing:
                self.pivots[q] = row_addmul(existing, res, -existing[p])
        self.pivots[p] = res
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    def rows(self) -> list[Row]:
        return [self.pivots[p] for p in sorted(self.pivots)]

    def coords(self, row: Row) -> list[CycloNumber] | None:
        """Coefficients of row over the echelon rows, or None."""
        res = dict(row)
        piv = sorted(self.pivots)
        out = [ZERO] * len(piv)
        for idx, p in enumerate(piv):
            c = res.get(p)
            if c:
                out[idx] = c
                res = row_addmul(res, self.pivots[p], -c)
        return out if not res else None


def rref(rows: list[Row], ncols: int) -> list[Row]:
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(r)
    return ech.rows()


def rank(rows: list[Row], ncols: int) -> int:
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(r)
    return ech.rank


def subspace_le(a: list[Row], b: list[Row], ncols: int) -> bool:
    ech = Echelon(ncols)
    for r in b:
        ech.insert(r)
    return all(ech.contains(r) for r in a)


def subspace_eq(a: list[Row], b: list[Row], ncols: int) -> bool:
    return rref(a, ncols) == rref(b, ncols)


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : sum_j rows[i][j] x_j = 0 for all i}, in RREF."""
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(r)
    piv = sorted(ech.pivots)
    free = [j for j in range(ncols) if j not in ech.pivots]
    out: list[Row] = []
    for f in free:
        vec: Row = {f: ONE}
        for p in piv:
            c = ech.pivots[p].get(f)
            if c:
                vec[p] = -c
        out.append(vec)
    return rref(out, ncols)


def solve_linear(rows: list[Row], ncols: int, rhs: list[CycloNumber]) -> Row | None:
    """One solution x of rows[i] . x = rhs[i] (free variables 0), or None."""
    aug = ncols
    ech = Echelon(ncols + 1)
    for r, b in zip(rows, rhs):
        row = dict(r)
        if b:
            row[aug] = b
        ech.insert(row)
    if aug in ech.pivots:
        return None
    x: Row = {}
    for p, row in ech.pivots.items():
        b = row.get(aug)
        if b:
            x[p] = b
    return x


def intersect(a: list[Row], b: list[Row], ncols: int) -> list[Row]:
    """RREF basis of rowspace(a) & rowspace(b)."""
    a = rref(a, ncols)
    b = rref(b, ncols)
    if not a or not b:
        return []
    # solve u.a - v.b = 0 over stacked coefficients
    k, m = len(a), len(b)
    stacked: list[Row] = []
    for j in range(ncols):
        col: Row = {}
        for i, r in enumerate(a):
            c = r.get(j)
            if c:
                col[i] = c
        for i, r in enumerate(b):
            c = r.get(j)
            if c:
                col[k + i] = -c
        if col:
            stacked.append(col)
    combos = nullspace(stacked, k + m)
    out: list[Row] = []
    for combo in combos:
        vec: Row = {}
        for i in range(k):
            c = combo.get(i)
            if c:
                vec = row_addmul(vec, a[i], c)
        if vec:
            out.append(vec)
    return rref(out, ncols)


def common_order(rows: list[Row]) -> int:
    n = 1
    for r in rows:
        for v in r.values():
            n = lcm(n, v.order)
    return n


def subspace_key(rows: list[Row], ncols: int, assume_rref: bool = False) -> tuple:
    """Canonical hashable key of a row space."""
    basis = rows if assume_rref else rref(rows, ncols)
    n = common_order(basis)
    return tuple(
        tuple(sorted((j, v.key(n)) for j, v in r.items()))
        for r in basis
    )


def tensor_index(i: int, j: int, dim: int) -> int:
    return i * dim + j


def kron_rows(a: list[Row], b: list[Row], dim: int) -> list[Row]:
    """Kronecker basis of span(a) (x) span(b) inside A (x) A."""
    out: list[Row] = []
    for r in a:
        for s in b:
            vec: Row = {}
            for i, u in r.items():
                for j, v in s.items():
                    vec[tensor_index(i, j, dim)] = u * v
            out.append(vec)
    return out
