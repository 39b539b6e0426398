"""Quasitriangular Hopf algebras presented by monomial structure tables.

Both constructions used here, the double of a finite group on the
basis p_g x h and the group algebra with the trivial R-matrix, multiply
basis elements to single basis elements (or zero), have coproducts
whose tensor terms all carry coefficient one, and permute the basis
under the antipode.  Every Hopf and R-matrix axiom therefore reduces
to integer table scans, cheap enough to run at construction time.

Elements of A and functionals in its dual A* are both plain sparse
rows, dicts from basis index to cyclotomic coefficient.  The Drinfeld
map phi_R(f) = f(Q^1)Q^2 built from the monodromy Q = R21*R is the
bridge between the two sides; it and its companion maps are fixed
(src, dst, coeff) tables applied with linalg.apply_pairs.

The coproduct is QTAlgebra.delta plus one derived index, delta_by_left.
Constructions reach it through three bilinear maps: convolve (f * g in
A*), harpoon_left (a <- f = f(a_1) a_2) and harpoon_right (f -> a =
a_1 f(a_2)).  They stay loops over Delta, not pair tables: both
arguments vary per call, and a table fixed in one costs an application
to build.  delta_of, leg_slices and the adjoint actions expand Delta(a)
on the element side; only verify_axioms scans delta, as it checks it.

Whatever is built from an algebra is built once per algebra, through one
helper: `memo` keeps it in the algebra's `_cache`, keyed on the function
that builds it, and `memoized` wraps the one-argument constructions.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, ONE, ZERO, as_cyclo
from .errors import (BoundExceeded, InconsistentCharacters,
                     InvariantViolation, NoIntegral, NotFactorizable, require)
from .groups import Group
from .linalg import (Echelon, Row, acc, apply_pairs, row_addmul, row_scale,
                     solve_linear, subspace_key)

DOUBLE_DIM_BOUND = 144
_ASSOC_BUDGET = 3_000_000
_SAMPLE_TRIPLES = 200_000
_SAMPLE_PAIRS = 20_000


def memo(A: QTAlgebra, key, build):
    """A._cache[key], calling build() on first use."""
    if key not in A._cache:
        A._cache[key] = build()
    return A._cache[key]


def memoized(fn):
    """fn(A) built once per algebra, keyed on fn."""
    @functools.wraps(fn)
    def once(A):
        return memo(A, fn, lambda: fn(A))
    return once


class Subspace:
    """A row space kept in reduced echelon form.

    The reduced form of a subspace is unique, so two subspaces are
    equal exactly when their row matrices are equal.
    """

    def __init__(self, rows: list[Row], ncols: int):
        self.ncols = ncols
        self._ech = Echelon(ncols)
        for r in rows:
            self._ech.insert(r)

    @property
    def dim(self) -> int:
        return self._ech.rank

    @property
    def rows(self) -> list[Row]:
        return self._ech.rows()

    def contains(self, row: Row) -> bool:
        return self._ech.contains(row)

    def key(self) -> tuple:
        return subspace_key(self.rows, self.ncols, assume_rref=True)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ncols == other.ncols
                and self.rows == other.rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ncols={self.ncols})"


class QTAlgebra:
    """Structure tables of a quasitriangular Hopf algebra.

    prod_idx[i][j] is the basis index of e_i e_j, or -1 when the
    product vanishes.  delta[k] lists the (i, j) tensor terms of
    Delta(e_k), all with coefficient one; delta_by_left() is the one
    index derived from it.  s_idx is the antipode as a basis permutation
    and r_terms lists the coefficient-one tensor terms of R.  What is
    built from the algebra is kept in `_cache`, which only `memo` reads
    or writes, so it is built once.
    """

    def __init__(self, name: str, kind: str, group: Group,
                 labels: list[str], prod_idx: list[list[int]],
                 delta: list[list[tuple[int, int]]], counit: list[int],
                 s_idx: list[int], r_terms: list[tuple[int, int]],
                 unit_row: Row):
        self.name = name
        self.kind = kind
        self.group = group
        self.labels = labels
        self.dim = len(labels)
        self.prod_idx = prod_idx
        self.delta = delta
        self.counit = counit
        self.s_idx = s_idx
        self.r_terms = r_terms
        self.unit_row = unit_row
        self._cache: dict = {}

    def pair_index(self, g: int, h: int) -> int:
        return g * self.group.n + h

    def basis(self, k: int) -> Row:
        return {k: ONE}

    @memoized
    def delta_by_left(self) -> list[list[tuple[int, int]]]:
        """For each left index i: the (k, j) with (i, j) a term of delta[k]."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for k, terms in enumerate(self.delta):
            for i, j in terms:
                out[i].append((k, j))
        return out

    def to_json(self) -> dict:
        """Sparse structure dump: product triplets, coproduct and R terms."""
        return {
            "name": self.name,
            "kind": self.kind,
            "group": self.group.to_json(),
            "dim": self.dim,
            "labels": list(self.labels),
            "product": [[i, j, k] for i, row in enumerate(self.prod_idx)
                        for j, k in enumerate(row) if k >= 0],
            "coproduct": [[k, i, j] for k, terms in enumerate(self.delta)
                          for i, j in terms],
            "counit": list(self.counit),
            "antipode": list(self.s_idx),
            "r": [[a, b] for a, b in self.r_terms],
            "unit": sorted(self.unit_row),
        }

    def __repr__(self) -> str:
        return f"QTAlgebra({self.name}, dim={self.dim})"


# --- elementary operations ---------------------------------------------


def pair_eval(f: Row, a: Row) -> CycloNumber:
    """<f, a> for a functional row and an element row."""
    if len(f) > len(a):
        f, a = a, f
    acc = ZERO
    for k, c in f.items():
        v = a.get(k)
        if v:
            acc = acc + c * v
    return acc


def mul_rows(A: QTAlgebra, a: Row, b: Row) -> Row:
    # hot kernel: kept inline, as a call to acc per term costs a few percent
    out: Row = {}
    prod = A.prod_idx
    for i, ai in a.items():
        pi = prod[i]
        for j, bj in b.items():
            k = pi[j]
            if k < 0:
                continue
            c = ai * bj
            w = out.get(k)
            s = c if w is None else w + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def apply_antipode(A: QTAlgebra, a: Row) -> Row:
    return {A.s_idx[k]: v for k, v in a.items()}


def counit_value(A: QTAlgebra, a: Row) -> CycloNumber:
    acc = ZERO
    for k, v in a.items():
        if A.counit[k]:
            acc = acc + v
    return acc


def counit_functional(A: QTAlgebra) -> Row:
    return {k: ONE for k in range(A.dim) if A.counit[k]}


def delta_of(A: QTAlgebra, a: Row) -> dict[tuple[int, int], CycloNumber]:
    out: dict[tuple[int, int], CycloNumber] = {}
    for k, v in a.items():
        for t in A.delta[k]:
            acc(out, t, v)
    return out


def harpoon_left(A: QTAlgebra, a: Row, f: Row) -> Row:
    """a <- f = f(a_1) a_2."""
    out: Row = {}
    for k, v in a.items():
        for i, j in A.delta[k]:
            fi = f.get(i)
            if fi:
                acc(out, j, v * fi)
    return out


def harpoon_right(A: QTAlgebra, f: Row, a: Row) -> Row:
    """f -> a = a_1 f(a_2)."""
    out: Row = {}
    for k, v in a.items():
        for i, j in A.delta[k]:
            fj = f.get(j)
            if fj:
                acc(out, i, v * fj)
    return out


def leg_slices(A: QTAlgebra, a: Row) -> tuple[list[Row], list[Row]]:
    """Delta(a) cut along each leg: the l_i in sum_i e_i x l_i and the r_j
    in sum_j r_j x e_j."""
    left: dict[int, Row] = {}
    right: dict[int, Row] = {}
    # delta_of has one nonzero entry per (i, j), so nothing sums here
    for (i, j), c in delta_of(A, a).items():
        left.setdefault(i, {})[j] = c
        right.setdefault(j, {})[i] = c
    return list(left.values()), list(right.values())


def adjoint(A: QTAlgebra, x: int, a: Row) -> Row:
    """x_1 a S(x_2), the left adjoint action of the basis element x."""
    return _sandwich(A, [(i, A.s_idx[j]) for i, j in A.delta[x]], a)


def right_adjoint(A: QTAlgebra, x: int, a: Row) -> Row:
    """S(x_1) a x_2, the right adjoint action of the basis element x."""
    return _sandwich(A, [(A.s_idx[i], j) for i, j in A.delta[x]], a)


def _sandwich(A: QTAlgebra, pairs: list[tuple[int, int]], a: Row) -> Row:
    """The sum of e_l a e_r over the (l, r) index pairs."""
    out: Row = {}
    for l, r in pairs:
        part = mul_rows(A, mul_rows(A, A.basis(l), a), A.basis(r))
        out = row_addmul(out, part, ONE)
    return out


def func_harpoon_left(A: QTAlgebra, x: Row, f: Row) -> Row:
    """x -> f, the functional a |-> f(a x)."""
    out: Row = {}
    prod = A.prod_idx
    for k in range(A.dim):
        pk = prod[k]
        acc = None
        for m, xm in x.items():
            t = pk[m]
            if t < 0:
                continue
            ft = f.get(t)
            if not ft:
                continue
            c = xm * ft
            acc = c if acc is None else acc + c
        if acc:
            out[k] = acc
    return out


def convolve(A: QTAlgebra, f: Row, g: Row) -> Row:
    """f * g in A*, dual to the coproduct: (f * g)(e_k) = f(e_i) g(e_j)
    summed over the terms (i, j) of Delta(e_k)."""
    # hot kernel: kept inline, as a call to acc per term costs a few percent;
    # only the terms whose left leg lies in the support of f are read
    out: Row = {}
    by_left = A.delta_by_left()
    for i, fi in f.items():
        for k, j in by_left[i]:
            gj = g.get(j)
            if not gj:
                continue
            c = fi * gj
            w = out.get(k)
            s = c if w is None else w + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def dual_character(A: QTAlgebra, chi: Row) -> Row:
    """chi composed with the antipode."""
    return {k: chi[A.s_idx[k]] for k in range(A.dim) if A.s_idx[k] in chi}


# --- constructors -------------------------------------------------------

_BUILD_CACHE: dict = {}


def build_double(G: Group, max_dim: int = DOUBLE_DIM_BOUND) -> QTAlgebra:
    """The double of kG on the basis p_g x h, with its standard R-matrix."""
    n = G.n
    dim = n * n
    if dim > max_dim:
        raise BoundExceeded(
            f"double of {G.name or 'group'} has dimension {dim} > {max_dim}")
    key = ("double", G.table)
    if key in _BUILD_CACHE:
        return _BUILD_CACHE[key]

    def bidx(g: int, h: int) -> int:
        return g * n + h

    prod_idx = [[-1] * dim for _ in range(dim)]
    for h in range(n):
        for g2 in range(n):
            c = G.conj(h, g2)
            left = bidx(c, h)
            for h2 in range(n):
                prod_idx[left][bidx(g2, h2)] = bidx(c, G.mul(h, h2))

    delta: list[list[tuple[int, int]]] = []
    counit: list[int] = []
    s_idx: list[int] = []
    labels: list[str] = []
    for g in range(n):
        for h in range(n):
            delta.append([(bidx(G.mul(G.inv[a], g), h), bidx(a, h))
                          for a in range(n)])
            counit.append(1 if g == 0 else 0)
            s_idx.append(bidx(G.conj(G.inv[h], G.inv[g]), G.inv[h]))
            labels.append(f"p{g}h{h}")

    r_terms = [(bidx(x, g), bidx(g, 0)) for g in range(n) for x in range(n)]
    unit_row = {bidx(g, 0): ONE for g in range(n)}
    A = QTAlgebra(f"D({G.name})", "double", G, labels, prod_idx, delta,
                  counit, s_idx, r_terms, unit_row)
    verify_axioms(A)
    _BUILD_CACHE[key] = A
    return A


def build_triangular(G: Group, max_dim: int = DOUBLE_DIM_BOUND) -> QTAlgebra:
    """The group algebra kG with the trivial R-matrix 1 x 1."""
    n = G.n
    if n > max_dim:
        raise BoundExceeded(f"group algebra dimension {n} > {max_dim}")
    key = ("group", G.table)
    if key in _BUILD_CACHE:
        return _BUILD_CACHE[key]
    prod_idx = [list(r) for r in G.table]
    delta = [[(g, g)] for g in range(n)]
    counit = [1] * n
    s_idx = list(G.inv)
    labels = [f"g{g}" for g in range(n)]
    A = QTAlgebra(f"k[{G.name}]", "group", G, labels, prod_idx, delta,
                  counit, s_idx, [(0, 0)], {0: ONE})
    verify_axioms(A)
    _BUILD_CACHE[key] = A
    return A


# --- axiom verification -------------------------------------------------


def _tensor_square(A: QTAlgebra, row: Row) -> Counter:
    """Terms of row x row, for comparing against coproduct expansions."""
    out: Counter = Counter()
    for i in row:
        for j in row:
            out[(i, j)] += 1
    return out


def verify_axioms(A: QTAlgebra, seed: int = 0) -> None:
    """Check the Hopf and R-matrix axioms, exhaustively when affordable."""
    dim = A.dim
    prod = A.prod_idx
    rnd = random.Random(seed)

    require(sorted(A.s_idx) == list(range(dim)), "antipode is not a bijection")
    for row in prod:
        require(all(-1 <= k < dim for k in row), "product table out of range")

    # unit
    for x in range(dim):
        require(mul_rows(A, A.unit_row, A.basis(x)) == A.basis(x), "unit fails on the left")
        require(mul_rows(A, A.basis(x), A.unit_row) == A.basis(x), "unit fails on the right")

    # associativity on basis triples
    if dim ** 3 <= _ASSOC_BUDGET:
        triples = ((i, j, l) for i in range(dim) for j in range(dim)
                   for l in range(dim))
    else:
        triples = ((rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
                   for _ in range(_SAMPLE_TRIPLES))
    for i, j, l in triples:
        k = prod[i][j]
        left = -1 if k < 0 else prod[k][l]
        m = prod[j][l]
        right = -1 if m < 0 else prod[i][m]
        require(left == right, f"associativity fails at ({i},{j},{l})")

    # counit is an algebra map
    eps = A.counit
    for i in range(dim):
        for j in range(dim):
            k = prod[i][j]
            require((0 if k < 0 else eps[k]) == eps[i] * eps[j],
                    "counit is not multiplicative")
    require(counit_value(A, A.unit_row) == ONE, "counit of 1 is not 1")

    # counit and coassociativity axioms
    for k in range(dim):
        left: Row = {}
        right: Row = {}
        for i, j in A.delta[k]:
            if eps[i]:
                acc(left, j, ONE)
            if eps[j]:
                acc(right, i, ONE)
        want = {k: ONE}
        require(left == want, "left counit axiom fails")
        require(right == want, "right counit axiom fails")
        lhs: Counter = Counter()
        rhs: Counter = Counter()
        for i, j in A.delta[k]:
            for a, b in A.delta[i]:
                lhs[(a, b, j)] += 1
            for a, b in A.delta[j]:
                rhs[(i, a, b)] += 1
        require(lhs == rhs, f"coassociativity fails at {k}")

    # coproduct is an algebra map
    max_delta = max(len(t) for t in A.delta)
    if dim * dim * max_delta * max_delta <= 8_000_000:
        pairs = ((i, j) for i in range(dim) for j in range(dim))
    else:
        pairs = ((rnd.randrange(dim), rnd.randrange(dim))
                 for _ in range(_SAMPLE_PAIRS))
    for x, y in pairs:
        got: Counter = Counter()
        for a, b in A.delta[x]:
            for c, d in A.delta[y]:
                u = prod[a][c]
                if u < 0:
                    continue
                v = prod[b][d]
                if v < 0:
                    continue
                got[(u, v)] += 1
        k = prod[x][y]
        want = Counter() if k < 0 else Counter(A.delta[k])
        require(got == want, f"coproduct not multiplicative at ({x},{y})")
    got_unit: Counter = Counter()
    for k in A.unit_row:
        got_unit.update(A.delta[k])
    require(got_unit == _tensor_square(A, A.unit_row), "coproduct of 1 is not 1 x 1")

    # antipode
    s = A.s_idx
    for i in range(dim):
        for j in range(dim):
            k = prod[i][j]
            require((-1 if k < 0 else s[k]) == prod[s[j]][s[i]],
                    "antipode is not an antihomomorphism")
    require(apply_antipode(A, A.unit_row) == A.unit_row, "antipode moves 1")
    require(all(eps[s[k]] == eps[k] for k in range(dim)), "counit not antipode-invariant")
    for k in range(dim):
        acc_l: Row = {}
        acc_r: Row = {}
        for i, j in A.delta[k]:
            u = prod[s[i]][j]
            if u >= 0:
                acc(acc_l, u, ONE)
            v = prod[i][s[j]]
            if v >= 0:
                acc(acc_r, v, ONE)
        want = {m: ONE for m in A.unit_row} if eps[k] else {}
        require(acc_l == want, f"left antipode axiom fails at {k}")
        require(acc_r == want, f"right antipode axiom fails at {k}")

    # R-matrix axioms
    r = A.r_terms
    lhs13_23: Counter = Counter()
    for i1, j1 in r:
        for i2, j2 in r:
            u = prod[j1][j2]
            if u >= 0:
                lhs13_23[(i1, i2, u)] += 1
    rhs_d1: Counter = Counter()
    for i, j in r:
        for a, b in A.delta[i]:
            rhs_d1[(a, b, j)] += 1
    require(lhs13_23 == rhs_d1, "(Delta x id)(R) != R13 R23")

    lhs13_12: Counter = Counter()
    for i1, j1 in r:   # R13
        for i2, j2 in r:   # R12
            u = prod[i1][i2]
            if u >= 0:
                lhs13_12[(u, j2, j1)] += 1
    rhs_d2: Counter = Counter()
    for i, j in r:
        for a, b in A.delta[j]:
            rhs_d2[(i, a, b)] += 1
    require(lhs13_12 == rhs_d2, "(id x Delta)(R) != R13 R12")

    for x in range(dim):
        lhs: Counter = Counter()
        rhs: Counter = Counter()
        for a, b in A.delta[x]:
            for i, j in r:
                u = prod[b][i]
                v = prod[a][j]
                if u >= 0 and v >= 0:
                    lhs[(u, v)] += 1
                u = prod[i][a]
                v = prod[j][b]
                if u >= 0 and v >= 0:
                    rhs[(u, v)] += 1
        require(lhs == rhs, f"R does not intertwine the coproducts at {x}")

    rinv = [(s[i], j) for i, j in r]
    prod_rr: Counter = Counter()
    for i1, j1 in r:
        for i2, j2 in rinv:
            u = prod[i1][i2]
            v = prod[j1][j2]
            if u >= 0 and v >= 0:
                prod_rr[(u, v)] += 1
    require(prod_rr == _tensor_square(A, A.unit_row), "(S x id)(R) is not inverse to R")


# --- integrals ----------------------------------------------------------


@memoized
def integrals(A: QTAlgebra) -> tuple[Row, Row]:
    """(Lambda, t): the idempotent integral of A and of A*."""
    n = A.group.n
    frac = as_cyclo(Fraction(1, n))
    if A.kind == "double":
        lam = {A.pair_index(0, h): frac for h in range(n)}
        t = {A.pair_index(g, 0): frac for g in range(n)}
    else:  # "group", the only other kind; _check_integrals confirms both
        lam = {g: frac for g in range(n)}
        t = {0: ONE}
    _check_integrals(A, lam, t)
    return lam, t


def _check_integrals(A: QTAlgebra, lam: Row, t: Row) -> None:
    if counit_value(A, lam) != ONE:
        raise NoIntegral("integral of A is not normalized")
    if pair_eval(t, A.unit_row) != ONE:
        raise NoIntegral("integral of A* is not normalized")
    for x in range(A.dim):
        ex = A.basis(x)
        want = row_scale(lam, as_cyclo(1 if A.counit[x] else 0))
        if mul_rows(A, ex, lam) != want or mul_rows(A, lam, ex) != want:
            raise NoIntegral(f"Lambda is not a two-sided integral (basis {x})")
        want_f = row_scale(A.unit_row, t.get(x, ZERO))
        if harpoon_left(A, ex, t) != want_f:
            raise NoIntegral(f"t is not a left cointegral (basis {x})")
        if harpoon_right(A, t, ex) != want_f:
            raise NoIntegral(f"t is not a right cointegral (basis {x})")
    dim_inv = as_cyclo(Fraction(1, A.dim))
    if pair_eval(t, lam) != dim_inv:
        raise NoIntegral("t(Lambda) != 1/dim")


# --- Drinfeld map -------------------------------------------------------


class DrinfeldMap:
    """phi_R(f) = f(Q^1)Q^2 and its companions, for Q = R21 R.

    Each map is a fixed (src, dst, coeff) table built here once; the
    reversed maps have tables of their own rather than a direction flag.
    """

    def __init__(self, A: QTAlgebra):
        self.algebra = A
        q: dict[tuple[int, int], CycloNumber] = {}
        prod = A.prod_idx
        for i1, j1 in A.r_terms:      # R21 factor (j1, i1)
            for i2, j2 in A.r_terms:  # R factor (i2, j2)
                a = prod[j1][i2]
                if a < 0:
                    continue
                b = prod[i1][j2]
                if b < 0:
                    continue
                acc(q, (a, b), ONE)
        self.q_terms = q
        if A.kind == "double":
            G = A.group
            want = {(A.pair_index(g, h), A.pair_index(G.conj(g, h), g)): ONE
                    for g in range(G.n) for h in range(G.n)}
            require(q == want, "monodromy of the double has unexpected terms")
        self._phi = [(a, b, c) for (a, b), c in q.items()]
        self._rphi = [(b, a, c) for (a, b), c in q.items()]
        self._f_r = [(i, j, ONE) for i, j in A.r_terms]
        self._f_r21 = [(j, i, ONE) for i, j in A.r_terms]

    def phi(self, f: Row) -> Row:
        return apply_pairs(self._phi, f)

    def rphi(self, f: Row) -> Row:
        """f(Q^2) Q^1."""
        return apply_pairs(self._rphi, f)

    def f_r(self, f: Row) -> Row:
        """p(R^1) R^2."""
        return apply_pairs(self._f_r, f)

    def f_r21(self, f: Row) -> Row:
        """p(R^2) R^1."""
        return apply_pairs(self._f_r21, f)

    def matrix_rows(self) -> list[Row]:
        """Row i of the matrix of phi over the dual basis."""
        def build() -> list[Row]:
            dim = self.algebra.dim
            rows: list[Row] = [{} for _ in range(dim)]
            for k in range(dim):
                for i, c in self.phi({k: ONE}).items():
                    rows[i][k] = c
            return rows
        return memo(self.algebra, DrinfeldMap.matrix_rows, build)

    @property
    def rank(self) -> int:
        def build() -> int:
            ech = Echelon(self.algebra.dim)
            for r in self.matrix_rows():
                ech.insert(r)
            return ech.rank
        return memo(self.algebra, DrinfeldMap.rank, build)

    @property
    def is_factorizable(self) -> bool:
        return self.rank == self.algebra.dim

    def invert(self, target: Row) -> Row | None:
        """Solve phi(f) = target for f."""
        dim = self.algebra.dim
        rhs = [target.get(i, ZERO) for i in range(dim)]
        return solve_linear(self.matrix_rows(), dim, rhs)


@memoized
def drinfeld_map(A: QTAlgebra) -> DrinfeldMap:
    return DrinfeldMap(A)


# --- idempotents, conjugacy classes, K_A --------------------------------


def central_idempotents(A: QTAlgebra, chars: list[Row]) -> list[Row]:
    """E_i = chi_i(1) (Lambda <- chi_{i*}), fully cross-checked."""
    lam, _ = integrals(A)
    out: list[Row] = []
    degrees: list[CycloNumber] = []
    for chi in chars:
        d = pair_eval(chi, A.unit_row)
        degrees.append(d)
        out.append(row_scale(harpoon_left(A, lam, dual_character(A, chi)), d))
    total: Row = {}
    for j, ej in enumerate(out):
        total = row_addmul(total, ej, ONE)
        for i, ei in enumerate(out):
            want = ej if i == j else {}
            if mul_rows(A, ei, ej) != want:
                raise InconsistentCharacters(
                    f"central idempotents {i},{j} are not orthogonal idempotents")
        for x in range(A.dim):
            ex = A.basis(x)
            if mul_rows(A, ex, ej) != mul_rows(A, ej, ex):
                raise InconsistentCharacters(f"idempotent {j} is not central")
        for i, chi in enumerate(chars):
            want_val = degrees[i] if i == j else ZERO
            if pair_eval(chi, ej) != want_val:
                raise InconsistentCharacters(
                    f"character {i} has wrong value on idempotent {j}")
    if total != A.unit_row:
        raise InconsistentCharacters("central idempotents do not sum to 1")
    return out


@dataclass
class CharRing:
    """Primitive idempotents F_j of the character ring and their images.

    partition[j] lists the central idempotents appearing in phi(F_j);
    the nonempty entries tile the simple indices.  j_of[i] is the block
    containing the i-th simple, and n_values[j] is the class-equation
    integer dim(A)/dim(A* F_j).
    """

    idempotents: list[Row]
    central: list[Row]
    partition: list[list[int]]
    j_of: list[int]
    n_values: list[int]


def char_ring_idempotents(A: QTAlgebra, chars: list[Row]) -> CharRing:
    E = central_idempotents(A, chars)
    dm = drinfeld_map(A)
    r = len(chars)
    if dm.is_factorizable:
        F: list[Row] = []
        for j, ej in enumerate(E):
            fj = dm.invert(ej)
            if fj is None or dm.phi(fj) != ej:
                raise InvariantViolation(f"phi does not reach idempotent {j}")
            F.append(fj)
    elif A.kind == "group":
        F = [{g: ONE for g in cls.members} for cls in A.group.conjugacy_classes()]
        if len(F) != r:
            raise InconsistentCharacters("class count differs from character count")
    else:
        raise NotFactorizable(
            "character ring idempotents need a factorizable double or kG")

    lam, t = integrals(A)
    eps_f = counit_functional(A)
    span = Echelon(A.dim)
    for chi in chars:
        span.insert(chi)
    total: Row = {}
    for j, fj in enumerate(F):
        total = row_addmul(total, fj, ONE)
        require(span.contains(fj), f"F_{j} is outside the character ring")
        for i, fi in enumerate(F):
            want = fj if i == j else {}
            require(convolve(A, fi, fj) == want,
                    f"F_{i}, F_{j} are not orthogonal idempotents")
    require(total == eps_f, "character ring idempotents do not sum to eps")
    require(F[0] == t, "F_0 is not the integral of A*")

    degrees = [pair_eval(chi, A.unit_row) for chi in chars]
    partition: list[list[int]] = []
    seen: set[int] = set()
    for j, fj in enumerate(F):
        image = dm.phi(fj)
        block: list[int] = []
        rebuilt: Row = {}
        for s in range(r):
            c = pair_eval(chars[s], image) / degrees[s]
            if c == ZERO:
                continue
            require(c == ONE, f"phi(F_{j}) has a non-idempotent coefficient")
            block.append(s)
            rebuilt = row_addmul(rebuilt, E[s], ONE)
        require(rebuilt == image, f"phi(F_{j}) is not a sum of central idempotents")
        require(not (set(block) & seen), "partition blocks overlap")
        seen.update(block)
        partition.append(block)
    require(len(seen) == r, "partition blocks do not cover all simples")
    j_of = [-1] * r
    for j, block in enumerate(partition):
        for s in block:
            j_of[s] = j

    n_values: list[int] = []
    for j, fj in enumerate(F):
        ech = Echelon(A.dim)
        for k in range(A.dim):
            ech.insert(convolve(A, {k: ONE}, fj))
        size = ech.rank
        require(size > 0 and A.dim % size == 0,
                f"dim(A* F_{j}) = {size} does not divide {A.dim}")
        nj = A.dim // size
        require(pair_eval(fj, lam) == as_cyclo(Fraction(1, nj)),
                f"F_{j}(Lambda) != 1/{nj}")
        n_values.append(nj)
    return CharRing(F, E, partition, j_of, n_values)


@dataclass
class ConjClass:
    """A conjugacy class of the algebra: its span and its class sum."""
    space: Subspace
    class_sum: Row


def conjugacy_class(A: QTAlgebra, j: int, ring: CharRing) -> ConjClass:
    """C^j = Lambda <- F_j A* together with C_j = Lambda <- (dim A) F_j."""
    lam, _ = integrals(A)
    fj = ring.idempotents[j]
    space = Subspace([harpoon_left(A, lam, convolve(A, fj, {k: ONE}))
                      for k in range(A.dim)], A.dim)
    class_sum = row_scale(harpoon_left(A, lam, fj), as_cyclo(A.dim))
    require(space.contains(class_sum), "class sum is outside its class span")
    nj = ring.n_values[j]
    require(counit_value(A, class_sum) == as_cyclo(Fraction(A.dim, nj)),
            f"eps(C_{j}) != dim/n_{j}")
    return ConjClass(space, class_sum)


def all_classes(A: QTAlgebra, ring: CharRing) -> list[ConjClass]:
    def build() -> list[ConjClass]:
        classes = [conjugacy_class(A, j, ring)
                   for j in range(len(ring.idempotents))]
        ech = Echelon(A.dim)
        total = 0
        for cls in classes:
            total += cls.space.dim
            for row in cls.space.rows:
                ech.insert(row)
        require(total == A.dim and ech.rank == A.dim,
                "conjugacy classes do not decompose the algebra")
        return classes
    return memo(A, all_classes, build)


def is_left_coideal(A: QTAlgebra, space: Subspace) -> bool:
    """Delta(L) <= A x L, checked slice by slice on the left leg."""
    for row in space.rows:
        left, _ = leg_slices(A, row)
        if not all(space.contains(sl) for sl in left):
            return False
    return True


@memoized
def compute_K_A(A: QTAlgebra) -> Subspace:
    """The image of the Drinfeld map, verified to be an S-stable coideal
    subalgebra."""
    dm = drinfeld_map(A)
    space = Subspace(_columns(dm.matrix_rows(), A.dim), A.dim)
    require(space.contains(A.unit_row), "K_A misses the unit")
    for a in space.rows:
        for b in space.rows:
            require(space.contains(mul_rows(A, a, b)), "K_A is not closed under product")
        require(space.contains(apply_antipode(A, a)), "K_A is not antipode-stable")
    require(is_left_coideal(A, space), "K_A is not a left coideal")
    return space


def _columns(rows: list[Row], dim: int) -> list[Row]:
    cols: list[Row] = [{} for _ in range(dim)]
    for i, row in enumerate(rows):
        for k, c in row.items():
            cols[k][i] = c
    return cols


# --- quasitriangular structure checks ------------------------------------


def verify_quasitriangular(A: QTAlgebra, chars: list[Row], ring: CharRing,
                           seed: int = 0) -> None:
    """Identities tying phi_R to characters, centers and conjugacy classes."""
    dm = drinfeld_map(A)
    lam, t = integrals(A)
    rnd = random.Random(seed)

    # phi restricted to the character ring is multiplicative and central
    randoms: list[Row] = []
    for _ in range(20):
        f = {k: as_cyclo(rnd.randint(-3, 3)) for k in range(A.dim)}
        randoms.append({k: v for k, v in f.items() if v})
    for chi in chars:
        img = dm.phi(chi)
        for x in range(A.dim):
            ex = A.basis(x)
            require(mul_rows(A, img, ex) == mul_rows(A, ex, img),
                    "phi of a character is not central")
        for f in randoms:
            require(dm.phi(convolve(A, chi, f)) == mul_rows(A, img, dm.phi(f)),
                    "phi is not multiplicative against the character ring")
        require(dm.rphi(chi) == img, "the two Drinfeld maps differ on a character")

    # rphi = S o phi o S* on the whole dual
    for k in range(A.dim):
        f = {k: ONE}
        fs = {A.s_idx[m]: c for m, c in f.items()}
        require(dm.rphi(f) == apply_antipode(A, dm.phi(fs)),
                "rphi != S phi S* on the dual basis")

    # phi is the convolution of the two half maps
    prod_pairs: list[list[tuple[int, int]]] = [[] for _ in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            k = A.prod_idx[i][j]
            if k >= 0:
                prod_pairs[k].append((i, j))
    for k in range(A.dim):
        got: Row = {}
        for i, j in prod_pairs[k]:
            part = mul_rows(A, dm.f_r21({i: ONE}), dm.f_r({j: ONE}))
            got = row_addmul(got, part, ONE)
        require(got == dm.phi({k: ONE}), "phi != f_R21 * f_R")

    # the image of the dual integral matches block 0 of the partition
    img_t = dm.phi(t)
    want: Row = {}
    for s in ring.partition[0]:
        want = row_addmul(want, ring.central[s], ONE)
    require(img_t == want, "phi(t) is not the sum of block-0 idempotents")

    # class spans are stable under both double-sided actions
    classes = all_classes(A, ring)
    for cls in classes:
        space = cls.space
        for row in space.rows:
            for x in range(A.dim):
                require(space.contains(adjoint(A, x, row)),
                        "class span is not stable under the adjoint action")
            for k in range(A.dim):
                shifted = harpoon_left(A, row, {A.s_idx[k]: ONE})
                require(space.contains(shifted),
                        "class span is not stable under dual translation")
