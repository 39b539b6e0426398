"""Exact sparse linear algebra over cyclotomic scalars.

Vectors are dicts mapping column index to a nonzero CycloNumber.
Echelon, an incremental reduced row echelon form, is the one subspace
type: every coideal, class span, (A//L)*, K_A and kernel is an Echelon
built from its rows in one call.  Since the RREF of a subspace is
unique, spaces compare by their reduced rows (==, <=), which also gives
cheap canonical keys for deduplication.  The reduced rows also give
coordinates: a row of the span has its own values at the pivots as its
coefficients (coords).  Spaces in, spaces out: nullspace(rows, ncols)
returns the kernel as an Echelon, and intersect(x, y) reads the meet off
one Echelon of the doubled rows of x and the rows of y (Zassenhaus; the
lemma is in its docstring).

The mod-p section at the end holds the one F_p kernel of the package:
one constructor of prime fields, _field(n, lower), memoized on both: the
smallest prime p > lower with p = 1 (mod n), and the powers of a
primitive n-th root of unity w, checked when the field is built; dense
RREF and kernels over chartab's own small prime (its field has p > |G|);
and the one reduction of cyclotomic rows, rows_modp, with rank_modp, a
sparse rank that stops at a target.  rows_modp reads the field of the
common order n of its rows with p > 2^20.  Every certificate of the
package is a rank mod p that reaches an upper bound of the exact rank,
taken through one helper, image_rank (row_rank here, coideal_integral,
quotient_dual and hopf._ideal_dims), whose docstring states the
reduction lemma once; the two catalog certificates of coideal rank the
images their catalog reduced once per algebra.  A shortfall, or a p
dividing a denominator, proves nothing, and the exact route runs.

Sparse accumulation goes through three helpers: acc adds one term into a
row, row_sum adds whole rows, and apply_pairs applies a fixed (src, dst,
coeff) table to a vector.
The hot kernels keep their loops inline, as a call per term costs
measurably there: _sub_into under every Echelon reduction, hopf.mul_rows
under every general x general product (a product by a basis element is
a relabel, hopf.lmul or hopf.rmul, with no scalar operation), and
hopf.convolve, run r^2 times per fusion table.
Accumulation order is part of the output: the stored order of a
CycloNumber depends on the chain of operations that built it (zeta(3)
and the equal zeta(12, 4) are stored at orders 3 and 6, see cyclo), and
to_json writes that order.
"""

from __future__ import annotations

import functools
from math import lcm

from .cyclo import CycloNumber, ZERO, ONE
from .errors import fail

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


def row_sum(rows) -> Row:
    """The sum of rows, added slot by slot in the order given."""
    out: Row = {}
    for row in rows:
        for j, v in row.items():
            acc(out, j, v)
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


def _sub_into(out: Row, other: Row, c: CycloNumber) -> None:
    """out -= c*other in place, dropping exact zeros."""
    # hot kernel of every reduction: w - c*v goes through CycloNumber.__sub__,
    # which stores what w + (-c)*v stores (negation commutes with reduction,
    # descent and content), without building the negated multiplier
    for j, v in other.items():
        t = c * v
        w = out.get(j)
        if w is None:
            out[j] = -t
        else:
            s = w - t
            if s:
                out[j] = s
            else:
                del out[j]


class Echelon:
    """A row space in incrementally maintained reduced row echelon form.

    Echelon(ncols, rows) inserts rows in the order given.  Whatever rows
    span a space, and in whatever order, its reduced rows are the same.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.pivots: dict[int, Row] = {}
        self._key: tuple | None = None
        for r in rows:
            self.insert(r)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[Row]:
        """The reduced rows, by ascending pivot column."""
        return [self.pivots[p] for p in sorted(self.pivots)]

    def reduce(self, row: Row) -> Row:
        """Residual of row after elimination against current pivots."""
        # pivot rows are fully reduced (zero at every other pivot column),
        # so one ascending pass over the initial hits is enough
        out = dict(row)
        pv = self.pivots
        for j in sorted(c for c in row if c in pv):
            c = out.get(j)
            if c:
                _sub_into(out, pv[j], c)
        return out

    def insert(self, row: Row) -> bool:
        """Add a row; returns True if the dimension grew."""
        res = self.reduce(row)
        if not res:
            return False
        p = min(res.keys())
        inv = res[p].inverse()
        res = {j: inv * v for j, v in res.items()}
        # a published pivot row is never mutated: each update is a copy
        for q, existing in self.pivots.items():
            if p in existing:
                new = dict(existing)
                _sub_into(new, res, existing[p])
                self.pivots[q] = new
        self.pivots[p] = res
        self._key = None
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    def coords(self, row: Row) -> list[CycloNumber] | None:
        """Coefficients of row over the echelon rows, or None off the span.
        Each reduced row is 1 at its pivot and 0 at every other pivot, so
        a row of the span has its own value at each pivot as coefficient."""
        if not self.contains(row):
            return None
        return [row.get(p, ZERO) for p in sorted(self.pivots)]

    def key(self) -> tuple:
        """Canonical hashable key, read off the reduced rows; kept until
        an insert grows the space, the only change to its rows."""
        if self._key is None:
            self._key = tuple(row_keys(self.rows))
        return self._key

    def __le__(self, other: "Echelon") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Echelon) and self.ncols == other.ncols
                and self.rows == other.rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Echelon(dim={self.dim}, ncols={self.ncols})"


def nullspace(rows: list[Row], ncols: int) -> Echelon:
    """The space {x : sum_j rows[i][j] x_j = 0 for all i}."""
    ech = Echelon(ncols, rows)
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
    return Echelon(ncols, out)


def intersect(x: Echelon, y: Echelon) -> Echelon:
    """The space x & y, read off one Echelon on 2 ncols columns (Zassenhaus).

    Lemma: the rows (u | u) for u in x and (v | 0) for v in y span the
    (u + v | u); such a row has first half 0 exactly when u = -v lies in
    x & y.  A combination of reduced rows is 0 in the first half only if
    it uses no row with its pivot there, so the reduced rows with their
    pivot in the second half are (0 | w), and their w are the reduced
    rows of x & y.
    """
    n = x.ncols
    doubled = [{**u, **{n + j: c for j, c in u.items()}} for u in x.rows]
    ech = Echelon(2 * n, doubled + y.rows)
    return Echelon(n, [{j - n: c for j, c in ech.pivots[p].items()}
                       for p in sorted(ech.pivots) if p >= n])


def row_keys(rows: list[Row]) -> list[tuple]:
    """Canonical hashable keys of the rows, each value read at the rows'
    common order (CycloNumber.key): rows are equal exactly when their
    keys are."""
    n = common_order(rows)
    return [tuple(sorted((j, v.key(n)) for j, v in r.items())) for r in rows]


def common_order(rows: list[Row]) -> int:
    n = 1
    for r in rows:
        for v in r.values():
            n = lcm(n, v.order)
    return n


# --- linear algebra over F_p ---------------------------------------------


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_prime(modulus: int, lower: int) -> int:
    """The smallest prime p > lower with p = 1 (mod modulus)."""
    p = lower + 1 + (-lower) % modulus
    while _prime_factors(p) != [p]:
        p += modulus
    return p


def primitive_root_of_unity(p: int, n: int) -> int:
    """Smallest generator of F_p^*, raised to (p-1)/n."""
    factors = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return pow(g, (p - 1) // n, p)


def rref_modp(mat: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the RREF of a dense matrix mod p, and their
    pivot columns."""
    rows = [r[:] for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def kernel_modp(mat: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {x : mat x = 0} mod p, for a square dense matrix."""
    n = len(mat)
    rr, pivots = rref_modp(mat, p)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r, pc in zip(rr, pivots):
            v[pc] = (-r[f]) % p
        out.append(v)
    return out


class _Field:
    """F_p with the powers w^0, ..., w^(n-1) of a primitive n-th root of
    unity w mod p.  Lemma: w^n = 1 and w^(n/q) != 1 for each prime q | n
    say that w has order exactly n, so the field is refused unless both
    hold."""

    def __init__(self, n: int, p: int, w: int):
        self.name, self.p = f"F_{p}", p
        self.powers = tuple(pow(w, e, p) for e in range(n))
        if (pow(w, n, p) != 1
                or any(self.powers[n // q] == 1 for q in _prime_factors(n))):
            fail(self, f"primitive {n}-th root of unity", None, f"w = {w}")


@functools.cache
def _field(n: int, lower: int) -> _Field:
    """F_p for p the smallest prime above lower with p = 1 (mod n), with
    the powers of a primitive n-th root of unity, built once per (n,
    lower): rows_modp asks for p > 2^20, chartab for p > |G|."""
    p = find_prime(n, lower)
    return _Field(n, p, primitive_root_of_unity(p, n))


def rows_modp(rows: list[Row]) -> tuple[int, list[dict[int, int]] | None]:
    """(p, images) for n the common order of the rows' values: the
    field's prime, and the image of each row in F_p under zeta_m ->
    w^(n/m); images is None when p divides a denominator, where the map
    is not defined."""
    n = common_order(rows)
    field = _field(n, 1 << 20)
    p, powers = field.p, field.powers
    images = []
    for row in rows:
        out: dict[int, int] = {}
        for j, v in row.items():
            if v.den % p == 0:
                return p, None
            step = n // v.order
            x = sum(c * powers[step * e] for e, c in v.nums.items())
            if x := x * pow(v.den, -1, p) % p:
                out[j] = x
        images.append(out)
    return p, images


def rank_modp(rows, p: int, target: int) -> int:
    """The rank mod p of the rows (dicts of any ints), read lazily; it
    stops as soon as the rank reaches target.  A forward echelon: each
    pivot row is scaled to lead with 1 and never reduced again."""
    pivots: dict[int, dict[int, int]] = {}
    if target <= 0:
        return 0
    for row in rows:
        res = {k: r for k, v in row.items() if (r := v % p)}
        while res:
            j = min(res)
            prow = pivots.get(j)
            if prow is None:
                inv = pow(res[j], -1, p)
                pivots[j] = {k: v * inv % p for k, v in res.items()}
                if len(pivots) >= target:
                    return len(pivots)
                break
            c = res[j]
            for k, v in prow.items():
                s = (res.get(k, 0) - c * v) % p
                if s:
                    res[k] = s
                else:
                    del res[k]
    return len(pivots)


def image_rank(rows: list[Row], form, stop: int) -> int | None:
    """The rank mod p of form(images, p), stopped at stop, for (p, images)
    = rows_modp(rows); None when p divides a denominator of the rows.

    Lemma: zeta_m -> w^(n/m), with denominators inverted, is a ring map
    Z[zeta_n][1/N] -> F_p where p divides no denominator N.  So a form
    that runs ring operations on the images (the code its caller runs
    over the exact rows) yields the images of the exact rows it yields
    there, and their rank mod p is at most their exact rank (Dixon,
    Numer. Math. 40, 1982).  Each caller states what reaching its target
    proves there.
    """
    p, images = rows_modp(rows)
    if images is None:
        return None
    return rank_modp(form(images, p), p, stop)


def row_rank(rows: list[Row], ncols: int) -> int:
    """The exact rank of the rows, certified mod p where it can be: the
    exact rank is at most min(len(rows), ncols), so a rank mod p that
    reaches that bound is the exact rank; otherwise Echelon decides."""
    bound = min(len(rows), ncols)
    if image_rank(rows, lambda images, p: images, bound) == bound:
        return bound
    return Echelon(ncols, rows).dim
