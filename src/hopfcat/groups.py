"""Finite groups as dense Cayley tables with 0-based indices.

Index 0 is always the identity.  Catalog groups come with documented
element orderings so every downstream object (classes, characters,
simple objects) is reproducible byte for byte:

* ``Z<n>``: residues 0..n-1 under addition.
* ``Z<a>xZ<b>``: pairs (i, j) in lexicographic order, index i*b + j.
* ``S<n>`` (n <= 4): permutations of {0..n-1} sorted lexicographically.
* ``A<n>`` (n <= 4): even permutations sorted lexicographically.
* ``D<n>`` (n = 3..6, order 2n): rotations r^0..r^(n-1) first, then
  reflections s*r^0..s*r^(n-1); (k1,f1)(k2,f2) = (k1+(-1)^f1 k2, f1^f2).
* ``Q8``: 1, -1, i, -i, j, -j, k, -k.

Whatever is built from a group or an algebra is built once per object,
through one helper: `memo` keeps it in the object's `_cache`, keyed on
the function that builds it, and `memoized` wraps the one-argument
constructions.  A group keeps its classes, exponent, subgroups and the
invariant bicharacters of each pair of normal subgroups there; an
algebra (hopf.QTAlgebra) keeps everything built from it.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from itertools import permutations
from math import lcm

from .errors import BoundExceeded, NotAGroup, ParseError, fail

NORMAL_SUBGROUP_BOUND = 24
# the largest algebra built: D(G) has dimension |G|^2 and kG dimension |G|,
# so no admitted algebra needs a group of larger order
DOUBLE_DIM_BOUND = 144
# the most bytes read from a cayley: file; an order-144 Cayley table is
# about 90 kB of JSON, 210 kB indented
CAYLEY_FILE_BOUND = 1 << 20


def memo(obj, key, build):
    """obj._cache[key], calling build() on first use."""
    if key not in obj._cache:
        obj._cache[key] = build()
    return obj._cache[key]


def memoized(fn):
    """fn(obj) built once per object, keyed on fn."""
    @functools.wraps(fn)
    def once(obj):
        return memo(obj, fn, lambda: fn(obj))
    return once


class Group:
    """Immutable finite group given by its Cayley table.  What is built
    from the group is kept in `_cache`, which only `memo` reads or
    writes."""

    def __init__(self, table: list[list[int]], name: str = "", check: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.name = name or f"order{self.n}"
        if check:
            self._validate()
        inv = [None] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == 0:
                    inv[a] = b
        if any(v is None for v in inv):
            raise NotAGroup(f"{self.name}: some element has no inverse")
        self.inv = tuple(inv)
        self._cache: dict = {}

    def _validate(self) -> None:
        n = self.n
        idx = range(n)
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise NotAGroup(f"{self.name}: malformed Cayley table")
        for a in idx:
            if self.table[0][a] != a or self.table[a][0] != a:
                raise NotAGroup(f"{self.name}: index 0 is not an identity")
        for a in idx:
            for b in idx:
                ab = self.table[a][b]
                for c in idx:
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise NotAGroup(f"{self.name}: associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, x: int, a: int) -> int:
        """x a x^-1."""
        return self.table[self.table[x][a]][self.inv[x]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @memoized
    def exponent(self) -> int:
        e = 1
        for a in range(self.n):
            e = lcm(e, self.element_order(a))
        return e

    def generators(self) -> tuple[int, ...]:
        """A small generating set with no redundant element: elements are
        taken greedily by descending order while they enlarge the span,
        then any that the others already generate is dropped."""
        gens: list[int] = []
        span: tuple[int, ...] = (0,)
        for a in sorted(range(self.n), key=lambda a: -self.element_order(a)):
            if a not in span:
                gens.append(a)
                span = subgroup_generated(self, gens).members
        for a in list(gens):
            rest = [b for b in gens if b != a]
            if subgroup_generated(self, rest).order == self.n:
                gens = rest
        return tuple(gens)

    @memoized
    def conjugacy_classes(self) -> list["ConjClassG"]:
        """Classes ordered with the identity class first, then by smallest member."""
        seen = [False] * self.n
        classes = []
        for a in range(self.n):
            if seen[a]:
                continue
            members = sorted({self.conj(x, a) for x in range(self.n)})
            for m in members:
                seen[m] = True
            classes.append(ConjClassG(representative=members[0], members=tuple(members)))
        classes.sort(key=lambda c: c.members[0])
        return classes

    @memoized
    def class_of(self) -> tuple[int, ...]:
        """The index of each element's class in conjugacy_classes()."""
        out = [0] * self.n
        for k, c in enumerate(self.conjugacy_classes()):
            for g in c.members:
                out[g] = k
        return tuple(out)

    def to_json(self) -> dict:
        return {"name": self.name, "n": self.n,
                "table": [list(row) for row in self.table]}

    def __repr__(self) -> str:
        return f"Group({self.name}, order {self.n})"


@dataclass(frozen=True)
class ConjClassG:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Subgroup:
    parent: Group
    members: tuple[int, ...]  # sorted, includes 0

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self, name: str = "") -> tuple[Group, dict[int, int]]:
        """Standalone group on the members (sorted order keeps 0 first)."""
        pos = {g: i for i, g in enumerate(self.members)}
        table = [[pos[self.parent.mul(a, b)] for b in self.members] for a in self.members]
        return Group(table, name=name or f"sub{len(self.members)}of{self.parent.name}",
                     check=False), pos


def subgroup_generated(G: Group, gens: list[int]) -> Subgroup:
    elems = {0}
    frontier = [0]
    gens = [g for g in gens if 0 <= g < G.n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return Subgroup(G, tuple(sorted(elems)))


@memoized
def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup, found by closing known subgroups with one element."""
    triv = subgroup_generated(G, [])
    found: dict[tuple[int, ...], Subgroup] = {triv.members: triv}
    frontier = [triv]
    while frontier:
        grown: list[Subgroup] = []
        for S in frontier:
            for g in range(1, G.n):
                if g in S.members:
                    continue
                T = subgroup_generated(G, list(S.members) + [g])
                if T.members not in found:
                    found[T.members] = T
                    grown.append(T)
        frontier = grown
    return sorted(found.values(), key=lambda s: (s.order, s.members))


def centralizer_subgroup(G: Group, a: int) -> Subgroup:
    members = tuple(x for x in range(G.n) if G.mul(x, a) == G.mul(a, x))
    return Subgroup(G, members)


def center_subgroup(G: Group) -> Subgroup:
    members = tuple(x for x in range(G.n)
                    if all(G.mul(x, a) == G.mul(a, x) for a in range(G.n)))
    return Subgroup(G, members)


def commute_elementwise(M: Subgroup, H: Subgroup) -> bool:
    G = M.parent
    return all(G.mul(m, h) == G.mul(h, m) for m in M.members for h in H.members)


@memoized
def normal_subgroups(G: Group) -> list[Subgroup]:
    """All normal subgroups of G, for |G| up to NORMAL_SUBGROUP_BOUND.

    Every normal subgroup is generated by the conjugacy classes it
    contains, so the full set is the closure of {1} under joining with
    one class at a time.
    """
    if G.n > NORMAL_SUBGROUP_BOUND:
        raise BoundExceeded("normal subgroup enumeration limited to order "
                            f"{NORMAL_SUBGROUP_BOUND}")
    classes = G.conjugacy_classes()
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        base = frontier.pop()
        for c in classes:
            if c.members[0] in base:
                continue
            joined = subgroup_generated(G, list(base) + list(c.members)).members
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    out = [Subgroup(G, m) for m in found]
    out.sort(key=lambda s: (s.order, s.members))
    return out


def commutator_subgroup(H: Subgroup) -> Subgroup:
    G = H.parent
    comms = {G.mul(G.mul(a, b), G.inv[G.mul(b, a)])
             for a in H.members for b in H.members}
    return subgroup_generated(G, sorted(comms))


def quotient_group(H: Subgroup, N: Subgroup) -> tuple[Group, dict[int, int]]:
    """H/N for N normal in H; returns the quotient and the projection map."""
    G = H.parent
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for h in H.members:  # sorted, so each new coset is met at its minimum
        if h in coset_of:
            continue
        idx = len(reps)
        reps.append(h)
        for x in N.members:
            coset_of[G.mul(h, x)] = idx
    table = [[coset_of[G.mul(reps[i], reps[j])] for j in range(len(reps))]
             for i in range(len(reps))]
    return Group(table, name=f"{H.parent.name}-quotient", check=False), coset_of


def abelian_cyclic_decomposition(Q: Group) -> list[tuple[int, int]]:
    """Direct factors of an abelian group as (generator, order) pairs."""
    subgroups: list[Subgroup] = []  # all_subgroups(Q), listed on first use

    def solve(members: tuple[int, ...]) -> list[tuple[int, int]]:
        if len(members) == 1:
            return []
        orders = {m: Q.element_order(m) for m in members}
        top = max(orders.values())
        g = min(m for m in members if orders[m] == top)
        cyc = set(subgroup_generated(Q, [g]).members)
        if len(cyc) == len(members):
            return [(g, top)]
        # find a complement among the subgroups of Q inside members
        if not subgroups:
            subgroups.extend(all_subgroups(Q))
        target = len(members) // top
        inside = set(members)
        for K in subgroups:
            k = set(K.members)
            if K.order == target and k <= inside and not (k & cyc - {0}):
                return [(g, top)] + solve(K.members)
        fail(Q, "abelian decomposition")  # pragma: no cover

    return solve(tuple(range(Q.n)))


def exponent_tables(Q: Group) -> tuple[list[tuple[int, int]], dict[int, tuple[int, ...]]]:
    """Cyclic decomposition plus exponent coordinates of every element."""
    gens = abelian_cyclic_decomposition(Q)
    coords: dict[int, tuple[int, ...]] = {}
    if not gens:
        coords[0] = ()
        return gens, coords

    def rec(i: int, elem: int, acc: tuple[int, ...]):
        if i == len(gens):
            coords[elem] = acc
            return
        g, d = gens[i]
        x = 0
        for e in range(d):
            rec(i + 1, Q.mul(elem, x), acc + (e,))
            x = Q.mul(x, g)

    rec(0, 0, ())
    if len(coords) != Q.n:
        fail(Q, "directness of the cyclic decomposition")  # pragma: no cover
    return gens, coords


def abelian_coordinates(S: Subgroup) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """The orders d_i of the cyclic factors of S/[S, S], and for each
    member of S the exponent coordinates of its coset on their generators."""
    Q, coset_of = quotient_group(S, commutator_subgroup(S))
    gens, coords = exponent_tables(Q)
    return [d for _, d in gens], {s: coords[coset_of[s]] for s in S.members}


# --- catalog -----------------------------------------------------------


def _cyclic(n: int) -> Group:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, name=f"Z{n}", check=False)


def _product_cyclic(a: int, b: int) -> Group:
    n = a * b
    def mul(x, y):
        xi, xj = divmod(x, b)
        yi, yj = divmod(y, b)
        return ((xi + yi) % a) * b + (xj + yj) % b
    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return Group(table, name=f"Z{a}xZ{b}", check=False)


def _perm_group(perms: list[tuple[int, ...]], name: str) -> Group:
    perms = sorted(perms)
    pos = {p: i for i, p in enumerate(perms)}
    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(len(p)))
    table = [[pos[compose(p, q)] for q in perms] for p in perms]
    return Group(table, name=name, check=False)


def _symmetric(n: int) -> Group:
    return _perm_group([p for p in permutations(range(n))], f"S{n}")


def _alternating(n: int) -> Group:
    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s
    return _perm_group([p for p in permutations(range(n)) if sign(p) == 1], f"A{n}")


def _dihedral(n: int) -> Group:
    order = 2 * n
    def mul(x, y):
        k1, f1 = x % n, x // n
        k2, f2 = y % n, y // n
        k = (k1 - k2) % n if f1 else (k1 + k2) % n
        return (f1 ^ f2) * n + k
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return Group(table, name=f"D{n}", check=False)


_Q8_SYM = {  # (x, y) -> (sign, symbol) with symbols 0=1, 1=i, 2=j, 3=k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def _quaternion8() -> Group:
    def mul(x, y):
        sx, ax = x % 2, x // 2
        sy, ay = y % 2, y // 2
        s, a = _Q8_SYM[(ax, ay)]
        return 2 * a + (sx ^ sy ^ s)
    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return Group(table, name="Q8", check=False)


_CATALOG = {
    "Q8": _quaternion8,
    "S2": lambda: _symmetric(2), "S3": lambda: _symmetric(3), "S4": lambda: _symmetric(4),
    "A3": lambda: _alternating(3), "A4": lambda: _alternating(4),
    "D3": lambda: _dihedral(3), "D4": lambda: _dihedral(4),
    "D5": lambda: _dihedral(5), "D6": lambda: _dihedral(6),
}

_RE_ZN = re.compile(r"^Z(\d+)$")
_RE_ZAB = re.compile(r"^Z(\d+)xZ(\d+)$")
_RE_CYCLE = re.compile(r"\(\s*(\d+(?:\s+\d+)*)\s*\)")


def _parse_perm_spec(body: str, offset: int) -> Group:
    """The group generated by the permutations of body, which starts at
    offset in the spec: every ParseError offset counts from the spec."""
    perms = []
    points: set[int] = set()
    for raw in body.split(","):
        gs = raw.strip()
        at = offset + len(raw) - len(raw.lstrip())   # gs starts here
        offset += len(raw) + 1
        if not gs:
            raise ParseError("empty permutation generator", at)
        # cycles blanked out, so the first stray character keeps its place
        blank = _RE_CYCLE.sub(lambda m: " " * len(m[0]), gs)
        if blank.strip():
            rest = _RE_CYCLE.sub("", gs).strip()
            raise ParseError(f"bad cycle syntax near {rest!r}",
                             at + len(blank) - len(blank.lstrip()))
        cycles = []
        moved: set[int] = set()
        for m in _RE_CYCLE.finditer(gs):
            pts = [int(t) for t in m.group(1).split()]
            # a point moved twice would make the generator no bijection
            if len(set(pts)) != len(pts) or not moved.isdisjoint(pts):
                raise ParseError("repeated point in the cycles of a "
                                 "generator", at + m.start())
            cycles.append(pts)
            moved.update(pts)
        points.update(moved)
        perms.append(cycles)
    pts = sorted(points)
    pos = {p: i for i, p in enumerate(pts)}
    deg = len(pts)
    gens = []
    for cycles in perms:
        perm = list(range(deg))
        for cyc in cycles:
            for i, p in enumerate(cyc):
                perm[pos[p]] = pos[cyc[(i + 1) % len(cyc)]]
        gens.append(tuple(perm))
    # close under composition
    elems = {tuple(range(deg))}
    frontier = list(elems)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[x]] for x in range(deg))
            if q not in elems:
                elems.add(q)
                _check_order(len(elems))
                frontier.append(q)
    return _perm_group(sorted(elems), name="perm" + str(len(elems)))


def _check_order(n: int) -> None:
    if n > DOUBLE_DIM_BOUND:
        raise BoundExceeded(f"group order {n} > {DOUBLE_DIM_BOUND}")


def double_name(G: Group) -> str:
    """The name of the double D(kG), as its algebra and payloads carry it."""
    return f"D({G.name})"


def check_double_dim(G: Group, max_dim: int = DOUBLE_DIM_BOUND) -> None:
    """Raise BoundExceeded unless D(kG), of dimension |G|^2, fits max_dim.

    max_dim can only lower DOUBLE_DIM_BOUND, never raise it.
    build_double calls it before building anything, and the CLI before
    it reads a cached result of the double, so a bound is refused the
    same way whether or not the cache holds the answer."""
    dim = G.n * G.n
    bound = min(max_dim, DOUBLE_DIM_BOUND)
    if dim > bound:
        raise BoundExceeded(
            f"double of {G.name or 'group'} has dimension {dim} > {bound}")


def parse_group_spec(spec: str) -> Group:
    """Grammar: NAME | 'perm:' cycles (',' cycles)* | 'cayley:' path.

    A group of order above DOUBLE_DIM_BOUND is refused from the spec,
    before anything of its size is built, and so is a cayley: file longer
    than CAYLEY_FILE_BOUND bytes (BoundExceeded).  A file that is not
    JSON or whose table is not a group is a ParseError."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec", 0)
    if spec.startswith("perm:"):
        return _parse_perm_spec(spec[5:], 5)
    if spec.startswith("cayley:"):
        path = spec[7:].strip()
        try:
            with open(path, "rb") as fh:
                data = fh.read(CAYLEY_FILE_BOUND + 1)
        except (OSError, ValueError) as e:   # ValueError: a NUL in the path
            raise ParseError(f"cannot read cayley table file: {e}", 7)
        if len(data) > CAYLEY_FILE_BOUND:
            raise BoundExceeded(
                f"cayley table file exceeds {CAYLEY_FILE_BOUND} bytes")
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError) as e:
            # bad syntax, undecodable bytes, or nesting too deep
            raise ParseError(f"cayley table file is not valid JSON: {e}", 7)
        table = obj.get("table") if isinstance(obj, dict) else obj
        name = obj.get("name", "") if isinstance(obj, dict) else ""
        if not (isinstance(name, str) and name.isprintable()):
            raise ParseError("cayley group name must be a printable string", 7)
        n = len(table) if isinstance(table, list) else 0
        _check_order(n)
        if not n or not all(isinstance(row, list) and len(row) == n
                            and all(type(v) is int for v in row)
                            for row in table):
            raise ParseError("cayley table must be a non-empty square list "
                             "of integer rows", 7)
        try:
            return Group(table, name=name or "cayley")
        except NotAGroup as e:
            raise ParseError(str(e), 7) from None
    m = _RE_ZAB.match(spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a < 1 or b < 1:
            raise ParseError("cyclic orders must be >= 1", 1)
        _check_order(a * b)
        return _product_cyclic(a, b)
    m = _RE_ZN.match(spec)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("cyclic order must be >= 1", 1)
        _check_order(n)
        return _cyclic(n)
    if spec in _CATALOG:
        return _CATALOG[spec]()
    raise ParseError(f"unknown group name {spec!r}", 0)
