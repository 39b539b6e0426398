"""Quasitriangular Hopf algebras presented by monomial structure tables.

Both constructions used here, the double of a finite group on the
basis p_g x h and the group algebra with the trivial R-matrix, multiply
basis elements to single basis elements (or zero), have coproducts
whose tensor terms all carry coefficient one, and permute the basis
under the antipode.  Every Hopf and R-matrix axiom therefore reduces
to integer table scans, cheap enough to run at construction time; an
axiom between tensors compares two multisets (Counters) of basis-index
tuples.

Elements of A and functionals in its dual A* are both plain sparse
rows, dicts from basis index to cyclotomic coefficient.  The Drinfeld
map phi_R(f) = f(Q^1)Q^2 built from the monodromy Q = R21*R is the
bridge between the two sides; it and its companion maps are fixed
(src, dst, coeff) tables applied with linalg.apply_pairs.

A product by a basis element is a relabel, not a multiplication:
verify_axioms checks once, by an integer scan, that e_k e_j and e_j e_k
are distinct basis elements for the j they do not kill, so lmul and
rmul move each coefficient of a row along one row or column of prod_idx
with no scalar operation, and left_quotients inverts the table for the
translates of functionals (the same scan writes each of its slots once).
mul_rows is left to general x general
products.  Invariance under the adjoint actions and centrality are
checked on the algebra generators only (`generators`), by ad_escape and
noncentral_generator, whose docstrings hold the lemmas.  verify_axioms
checks the multiplicative axioms and R's intertwining of the coproducts
the same way, once an integer search has shown that products of
generators reach every basis element; the central
idempotents and their character values are checked on the diagonal
only, and phi's multiplicativity on the dual basis.  The idempotents
of the character ring, the blocks of simples their images cover (in
closed form for both kinds, checked by one phi per idempotent), their
class-equation integers (ranks mod p, _ideal_dims) and the class spans
(each read off one coproduct, conjugacy_class) are built together by
char_ring_idempotents and kept on the CharRing it returns.  A
subalgebra, such as a coideal or K_A, is checked on a small generating
set of its own, certified once per space by subalgebra_generators: its
product closure, the left coideal property (is_left_coideal) and
ad-stability (ad_escape).  Each such check states its lemma where it
runs, and none samples.

The coproduct is QTAlgebra.delta plus one derived index, delta_by_left.
Constructions reach it through three bilinear maps: convolve (f * g in
A*), harpoon_left (a <- f = f(a_1) a_2) and harpoon_right (f -> a =
a_1 f(a_2)).  They stay loops over Delta, not pair tables: both
arguments vary per call, and a table fixed in one costs an application
to build.  coinvariants solves a_(1) (x) rho(a_(2)) = a (x) rho(1), or
its mirror, for a map rho given on the basis: the left kernel of a
simple module and the coinvariants of a quotient map are both that
system.  delta_of, leg_slices and the adjoint actions expand Delta(a)
on the element side; only verify_axioms scans delta, as it checks it.

Whatever is built from an algebra is built once per algebra, through the
one helper that groups use too: `groups.memo` keeps it in the algebra's
`_cache`, keyed on the function that builds it, and `groups.memoized`
wraps the one-argument constructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, ONE, ZERO, as_cyclo, dot
from .errors import BoundExceeded, fail
from .groups import (DOUBLE_DIM_BOUND, Group, check_double_dim, double_name,
                     memo, memoized)
from .linalg import (Echelon, Row, acc, apply_pairs, image_rank, nullspace,
                     row_rank, row_scale, row_sum)


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
    """<f, a> for a functional row and an element row, summed by cyclo.dot
    over the smaller support."""
    if len(f) > len(a):
        f, a = a, f
    return dot([(c, v) for k, c in f.items() if (v := a.get(k))])


def mul_rows(A: QTAlgebra, a: Row, b: Row) -> Row:
    """a b for general rows; a basis operand goes through lmul or rmul."""
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


def lmul(A: QTAlgebra, k: int, row: Row) -> Row:
    """e_k row: row relabelled through row k of prod_idx."""
    p = A.prod_idx[k]
    return {m: v for j, v in row.items() if (m := p[j]) >= 0}


def rmul(A: QTAlgebra, row: Row, k: int) -> Row:
    """row e_k: row relabelled through column k of prod_idx."""
    prod = A.prod_idx
    return {m: v for i, v in row.items() if (m := prod[i][k]) >= 0}


@memoized
def left_quotients(A: QTAlgebra) -> list[list[int]]:
    """lq[k][j]: the m with e_m e_j = e_k, or -1.

    Lemma: each slot is written at most once, so lq inverts prod_idx and
    holds no other entry.  verify_axioms refuses an algebra whose right
    multiplication by some e_j sends two basis elements to one (its
    basis-product injectivity scan), so for each (k, j) at most one m
    has e_m e_j = e_k; and every entry written is such an m.
    """
    lq = [[-1] * A.dim for _ in range(A.dim)]
    for m, row in enumerate(A.prod_idx):
        for j, k in enumerate(row):
            if k >= 0:
                lq[k][j] = m
    return lq


@memoized
def generators(A: QTAlgebra) -> list[int]:
    """Basis elements generating A as an algebra: p_g x 1 and p_g x s for
    every g and every s in S for the double, S for kG, where S =
    A.group.generators() generates G.

    For the double, the p_g x 1 span k^G, and products of the p_g x s
    reach every p_g x h with h a word in S; for kG the words in S are G.
    The trivial group has S empty, and its only word, the empty one, is
    the identity e_0 = 1, which then generates kG = k e_0 itself: a
    reach that starts from the generators must hold it.
    """
    S = A.group.generators()
    if A.kind == "double":
        return [A.pair_index(g, h) for h in (0, *S)
                for g in range(A.group.n)]
    return list(S) or [0]


def noncentral_generator(A: QTAlgebra, z: Row) -> int | None:
    """The first generator x with e_x z != z e_x, or None when z is central.

    Lemma: the elements commuting with z form a subalgebra ((ab)z =
    a(zb) = z(ab), and sums likewise), so z commuting with every algebra
    generator commutes with all of A.
    """
    for x in generators(A):
        if lmul(A, x, z) != rmul(A, z, x):
            return x
    return None


def apply_antipode(A: QTAlgebra, a: Row) -> Row:
    return {A.s_idx[k]: v for k, v in a.items()}


def counit_value(A: QTAlgebra, a: Row) -> CycloNumber:
    return sum((v for k, v in a.items() if A.counit[k]), ZERO)


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
    return _relabel_sum(A, [(i, A.s_idx[j]) for i, j in A.delta[x]], a)


def right_adjoint(A: QTAlgebra, x: int, a: Row) -> Row:
    """S(x_1) a x_2, the right adjoint action of the basis element x."""
    return _relabel_sum(A, [(A.s_idx[i], j) for i, j in A.delta[x]], a)


def _relabel_sum(A: QTAlgebra, pairs: list[tuple[int, int]], a: Row) -> Row:
    """The sum of e_l a e_r over the (l, r) index pairs.  Each term is
    rmul(A, lmul(A, l, a), r), inlined: the adjoint checks run this once
    per generator and row, and the two calls cost five times the loop."""
    out: Row = {}
    prod = A.prod_idx
    for l, r in pairs:
        left = prod[l]
        for k, v in a.items():
            m = left[k]
            if m >= 0:
                m = prod[m][r]
                if m >= 0:
                    acc(out, m, v)
    return out


def ad_escape(A: QTAlgebra, space: Echelon, action, rows) -> int | None:
    """The first generator x with action(A, x, row) outside space for some
    row of rows (rows outer, generators inner), or None; action is adjoint
    or right_adjoint, and rows span space or, when space is a subalgebra,
    generate it as an algebra (subalgebra_generators).

    Lemma (generators of A): ad is an algebra homomorphism A -> End(A),
    ad(xy) = ad(x) ad(y), and ad_r an antihomomorphism, ad_r(xy) =
    ad_r(y) ad_r(x), both linear in x; so a space stable under the action
    of each generator is stable under that of every product and sum of
    generators, that is of all of A.

    Lemma (generators of a subalgebra L): ad(x)(l l') = ad(x_1)(l)
    ad(x_2)(l') and ad_r(x)(l l') = ad_r(x_1)(l) ad_r(x_2)(l'), and
    ad(x)(1) = ad_r(x)(1) = eps(x) 1.  The legs x_1, x_2 of Delta(x) are
    generators again for every generator x (verify_axioms checks this once
    per algebra), so the l in L moved into L by the action of every
    generator form a subalgebra, and rows generating L suffice.
    """
    for row in rows:
        for x in generators(A):
            if not space.contains(action(A, x, row)):
                return x
    return None


def _generator_candidates(A: QTAlgebra, space: Echelon) -> list[Row]:
    """Candidate generators of the space, in the order subalgebra_generators
    tries them: its reduced rows of kG-degree 1 (in the span of the p_g x
    1, or of the unit of kG), then for each other degree h the sum of its
    reduced rows of degree h, then every reduced row; only the reduced
    rows when one of them is not homogeneous.

    The reduced rows of a coideal are near-basis elements whose products
    mostly vanish, so on their own the greedy needs most of them; a
    degree sum is one element whose products with the degree-1 part reach
    the whole degree.
    """
    n = A.group.n
    rows = space.rows
    degrees = [{k % n for k in row} for row in rows]
    if any(len(d) != 1 for d in degrees):
        return rows
    by_degree: dict[int, list[Row]] = {}
    for row, (h,) in zip(rows, degrees):
        by_degree.setdefault(h, []).append(row)
    ones = by_degree.pop(0, [])
    return ones + [row_sum(by_degree[h]) for h in sorted(by_degree)] + rows


def word_span(A: QTAlgebra, candidates, limit: int
              ) -> tuple[list[Row], Echelon] | None:
    """(S, W): W the span of the words in S grown from 1, S the candidates
    (in their order) not already in the span of the words in those before
    them; None once W outgrows dimension limit.

    W is grown by left multiplication: every product s w of an s in S
    with a word w spanning W is formed and reduced into W, so W is the
    smallest space holding 1 and closed under left multiplication by S.
    A candidate already in W is skipped: W is the subalgebra generated by
    the S so far, so adding it changes nothing.
    """
    gens: list[Row] = []
    words = Echelon(A.dim, [A.unit_row])
    basis = [A.unit_row]
    for c in candidates:
        if words.dim == limit:
            break
        if words.contains(c):
            continue
        gens.append(c)
        todo = [(c, w) for w in basis]
        while todo:
            s, w = todo.pop()
            p = mul_rows(A, s, w)
            if words.insert(p):
                if words.dim > limit:
                    return None
                basis.append(p)
                todo.extend((g, p) for g in gens)
    return gens, words


def subalgebra_generators(A: QTAlgebra, space: Echelon) -> list[Row] | None:
    """A small S inside the space L that generates it as an algebra,
    certified, or None when L is not a unital subalgebra; chosen once per
    space.

    S is picked greedily from _generator_candidates by word_span, and is
    certified by W == L for its span of words W.  That is both steps of
    the certificate: the words in S, grown from 1, span L, and s L = s W
    <= W = L for every s in S.  Lemma: then L L <= L, since a word s_1 ...
    s_k times L lies in L by induction on k, and the words span L.  So L
    is a unital subalgebra exactly when S exists, as every candidate lies
    in L and the reduced rows are among them.
    """
    def build() -> list[Row] | None:
        found = word_span(A, _generator_candidates(A, space), space.dim)
        if found is None or found[1] != space:
            return None
        return found[0]
    return memo(A, (subalgebra_generators, space.key()), build)


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


def coinvariants(A: QTAlgebra, rho: list[Row], rho_unit: Row,
                 side: str = "left") -> Echelon:
    """The a in A with a_(1) (x) rho(a_(2)) = a (x) rho(1), or with the
    mirror rho(a_(1)) (x) a_(2) = rho(1) (x) a when side is "right".

    rho[k] is rho(e_k) and rho_unit is rho(1), as sparse rows over the
    coordinates of the target of rho; each pair of a basis index of A and
    a coordinate gives one linear equation in the coefficients of a.
    """
    eqs: dict[tuple, Row] = {}
    for k in range(A.dim):
        for l, r in A.delta[k]:
            slot, other = (l, r) if side == "left" else (r, l)
            for m, c in rho[other].items():
                acc(eqs.setdefault((slot, m), {}), k, c)
    for slot in range(A.dim):
        for m, c in rho_unit.items():
            acc(eqs.setdefault((slot, m), {}), slot, -c)
    return nullspace([r for r in eqs.values() if r], A.dim)


def dual_character(A: QTAlgebra, chi: Row) -> Row:
    """chi composed with the antipode."""
    return {k: chi[A.s_idx[k]] for k in range(A.dim) if A.s_idx[k] in chi}


# --- constructors -------------------------------------------------------

# The one per-process cache of whole algebras, keyed on kind, group name
# and group table (the name is part of the algebra: D(S2) is not D(Z2)):
# tests, fixtures and CLI commands rebuild the same groups, and every
# per-algebra memo (hopf.memo) then lives on the one instance.
_BUILD_CACHE: dict = {}


def build_double(G: Group) -> QTAlgebra:
    """The double of kG on the basis p_g x h, with its standard R-matrix."""
    check_double_dim(G)
    n = G.n
    dim = n * n
    key = ("double", G.name, G.table)
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
    A = QTAlgebra(double_name(G), "double", G, labels, prod_idx, delta,
                  counit, s_idx, r_terms, unit_row)
    verify_axioms(A)
    _BUILD_CACHE[key] = A
    return A


def build_triangular(G: Group) -> QTAlgebra:
    """The group algebra kG with the trivial R-matrix 1 x 1."""
    n = G.n
    if n > DOUBLE_DIM_BOUND:
        raise BoundExceeded(
            f"group algebra dimension {n} > {DOUBLE_DIM_BOUND}")
    key = ("group", G.name, G.table)
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


def _tensor_mul(A: QTAlgebra, xs, ys) -> Counter:
    """(sum xs)(sum ys) in A x A, for two sums of coefficient-one basis
    tensors (i, j): the count of each term (u, v), in order of first
    appearance with xs outer."""
    prod = A.prod_idx
    out: Counter = Counter()
    for a, b in xs:
        pa, pb = prod[a], prod[b]
        for c, d in ys:
            u = pa[c]
            if u >= 0:
                v = pb[d]
                if v >= 0:
                    out[(u, v)] += 1
    return out


def _first_unreached(A: QTAlgebra, gens: list[int]) -> int | None:
    """The first basis index that no product of generators reaches (an
    integer search over right products by gens), or None."""
    prod = A.prod_idx
    seen = set(gens)
    todo = list(seen)
    while todo:
        row = prod[todo.pop()]
        for s in gens:
            k = row[s]
            if k >= 0 and k not in seen:
                seen.add(k)
                todo.append(k)
    return next((k for k in range(A.dim) if k not in seen), None)


def verify_axioms(A: QTAlgebra) -> None:
    """Check the Hopf and R-matrix axioms, each by one exhaustive scan.

    The basis with 0 adjoined is a magma under prod_idx, and the
    generators (`generators`) must reach every basis element as products;
    an integer search checks this first, after a scan that the coproduct
    legs of every generator are generators (Delta(p_g x h) = sum_a
    p_{a^-1 g} x h (x) p_a x h and Delta(g) = g (x) g), the hypothesis of
    ad_escape's lemma for generators of a subalgebra.  Then each
    multiplicative axiom is checked with its left factor s over the
    generators only:

    * associativity by Light's test, (x s) y == x (s y) for every basis
      x, y.  The s passing it are closed under products: (x(ab))y =
      ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), each step a or b passing
      it, so all of the basis passes, which is associativity;
    * eps(s y) = eps(s) eps(y), Delta(s y) = Delta(s) Delta(y) and
      S(s y) = S(y) S(s) for every basis y.  Each holds for a product ab
      when it holds for a and b: e.g. Delta((ab)y) = Delta(a(by)) =
      Delta(a) Delta(b) Delta(y) = Delta(ab) Delta(y), by the
      associativity proved first (in A, and so in A x A);
    * Delta^op(s) R = R Delta(s).  Delta is multiplicative, as just
      proved, and so is its flip Delta^op, so the s passing it are closed
      under products: Delta^op(ab) R = Delta^op(a) R Delta(b) =
      R Delta(ab).

    Per generator, each scan costs about what building prod_idx does
    (dim^2 entries, or dim |Delta|^2 = dim^2 term pairs for the double's
    coproduct), so no admitted size needs sampling, and none is sampled.
    """
    dim = A.dim
    prod = A.prod_idx

    if sorted(A.s_idx) != list(range(dim)):
        fail(A, "antipode bijectivity")
    for i, row in enumerate(prod):
        if not all(-1 <= k < dim for k in row):
            fail(A, "product-table range", i)

    # products by a basis element are relabels (lmul, rmul): each must be
    # injective on the basis elements it does not kill
    for k in range(dim):
        for side, hits in (("left", prod[k]),
                           ("right", [row[k] for row in prod])):
            hits = [m for m in hits if m >= 0]
            if len(set(hits)) != len(hits):
                fail(A, f"basis-product injectivity ({side} multiplication)", k)

    for x in range(dim):
        if rmul(A, A.unit_row, x) != A.basis(x):
            fail(A, "left unit", x)
        if lmul(A, x, A.unit_row) != A.basis(x):
            fail(A, "right unit", x)

    gens = generators(A)
    members = set(gens)
    for x in gens:
        if not all(i in members and j in members for i, j in A.delta[x]):
            fail(A, "generator coproduct legs", x)
    missing = _first_unreached(A, gens)
    if missing is not None:
        fail(A, "generator reach", missing)

    # associativity: Light's test over the table with -1 (zero) adjoined
    # as a last row and column, so that row[-1] is the zero product
    ext = [row + [-1] for row in prod]
    ext.append([-1] * (dim + 1))
    for s in gens:
        right_of_s = ext[s]
        for x in range(dim):
            px = ext[x]
            left = ext[px[s]]
            right = list(map(px.__getitem__, right_of_s))
            if left != right:
                y = next(y for y in range(dim) if left[y] != right[y])
                fail(A, "associativity", None, f"basis triple ({x},{s},{y})")

    # counit is an algebra map
    eps = A.counit
    for i in gens:
        row = prod[i]
        for j in range(dim):
            k = row[j]
            if (0 if k < 0 else eps[k]) != eps[i] * eps[j]:
                fail(A, "counit multiplicativity", None,
                     f"basis pair ({i},{j})")
    if counit_value(A, A.unit_row) != ONE:
        fail(A, "counit of the unit")

    # counit and coassociativity axioms, as integer multisets of terms
    for k in range(dim):
        terms = A.delta[k]
        if Counter(j for i, j in terms if eps[i]) != Counter([k]):
            fail(A, "left counit axiom", k)
        if Counter(i for i, j in terms if eps[j]) != Counter([k]):
            fail(A, "right counit axiom", k)
        if (Counter((a, b, j) for i, j in terms for a, b in A.delta[i])
                != Counter((i, a, b) for i, j in terms
                           for a, b in A.delta[j])):
            fail(A, "coassociativity", k)

    # coproduct is an algebra map
    for x in gens:
        for y in range(dim):
            k = prod[x][y]
            want = Counter(A.delta[k]) if k >= 0 else Counter()
            if _tensor_mul(A, A.delta[x], A.delta[y]) != want:
                fail(A, "coproduct multiplicativity", None,
                     f"basis pair ({x},{y})")
    one_one = Counter((i, j) for i in A.unit_row for j in A.unit_row)
    if Counter(t for k in A.unit_row for t in A.delta[k]) != one_one:
        fail(A, "coproduct of the unit")

    # antipode
    s = A.s_idx
    for i in gens:
        row = prod[i]
        for j in range(dim):
            k = row[j]
            if (-1 if k < 0 else s[k]) != prod[s[j]][s[i]]:
                fail(A, "antipode anti-multiplicativity", None,
                     f"basis pair ({i},{j})")
    if apply_antipode(A, A.unit_row) != A.unit_row:
        fail(A, "antipode of the unit")
    unit = Counter(A.unit_row)
    for k in range(dim):
        if eps[s[k]] != eps[k]:
            fail(A, "counit antipode-invariance", k)
        want = unit if eps[k] else Counter()
        if Counter(u for i, j in A.delta[k]
                   if (u := prod[s[i]][j]) >= 0) != want:
            fail(A, "left antipode axiom", k)
        if Counter(v for i, j in A.delta[k]
                   if (v := prod[i][s[j]]) >= 0) != want:
            fail(A, "right antipode axiom", k)

    # R-matrix axioms
    r = A.r_terms
    if (Counter((i1, i2, u) for i1, j1 in r for i2, j2 in r
                if (u := prod[j1][j2]) >= 0)
            != Counter((a, b, j) for i, j in r for a, b in A.delta[i])):
        fail(A, "(Delta x id)(R) = R13 R23")
    if (Counter((u, j2, j1) for i1, j1 in r for i2, j2 in r
                if (u := prod[i1][i2]) >= 0)
            != Counter((i, a, b) for i, j in r for a, b in A.delta[j])):
        fail(A, "(id x Delta)(R) = R13 R12")

    for x in gens:
        flip = [(b, a) for a, b in A.delta[x]]
        if _tensor_mul(A, flip, r) != _tensor_mul(A, r, A.delta[x]):
            fail(A, "R intertwining of Delta^op and Delta", x)

    if _tensor_mul(A, r, [(s[i], j) for i, j in r]) != one_one:
        fail(A, "(S x id)(R) inverse to R")


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
        fail(A, "normalization", None, "Lambda")
    if pair_eval(t, A.unit_row) != ONE:
        fail(A, "normalization", None, "t")
    for x in range(A.dim):
        ex = A.basis(x)
        want = row_scale(lam, as_cyclo(1 if A.counit[x] else 0))
        if lmul(A, x, lam) != want or rmul(A, lam, x) != want:
            fail(A, "two-sided integral", x, "Lambda")
        want_f = row_scale(A.unit_row, t.get(x, ZERO))
        if harpoon_left(A, ex, t) != want_f:
            fail(A, "left cointegral", x, "t")
        if harpoon_right(A, t, ex) != want_f:
            fail(A, "right cointegral", x, "t")
    if pair_eval(t, lam) != as_cyclo(Fraction(1, A.dim)):
        fail(A, f"t(Lambda) = 1/{A.dim}")


# --- Drinfeld map -------------------------------------------------------


class DrinfeldMap:
    """phi_R(f) = f(Q^1)Q^2 and its companions, for Q = R21 R.

    Each map is a fixed (src, dst, coeff) table built here once; the
    reversed maps have tables of their own rather than a direction flag.
    """

    def __init__(self, A: QTAlgebra):
        self.algebra = A
        r = A.r_terms
        q = {t: as_cyclo(c)
             for t, c in _tensor_mul(A, [(j, i) for i, j in r], r).items()}
        self.q_terms = q
        if A.kind == "double":
            G = A.group
            want = {(A.pair_index(g, h), A.pair_index(G.conj(g, h), g)): ONE
                    for g in range(G.n) for h in range(G.n)}
            if q != want:
                fail(A, "monodromy Q = R21 R of the double")
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

    def _eliminate(self) -> Echelon:
        """[M | I] in reduced form, for M the matrix of phi over the dual
        basis: the one elimination of M.  Row i of M is rphi(e_i^*), as
        M[i][k] = phi(e_k^*)_i, the coefficient of e_k x e_i in Q, is
        rphi(e_i^*)_k.  Its pivots in the first dim columns are those of
        M, so they count its rank; when M is invertible the reduced rows
        are [I | M^-1], row p of M^-1 in the columns from dim on."""
        dim = self.algebra.dim
        return Echelon(2 * dim, ({**self.rphi({i: ONE}), dim + i: ONE}
                                 for i in range(dim)))

    def _reduced(self) -> Echelon:
        return memo(self.algebra, DrinfeldMap._eliminate, self._eliminate)

    @property
    def rank(self) -> int:
        dim = self.algebra.dim
        return sum(1 for p in self._reduced().pivots if p < dim)

    @property
    def is_factorizable(self) -> bool:
        return self.rank == self.algebra.dim

    def invert(self, target: Row) -> Row | None:
        """The f with phi(f) = target, f_p = sum_c M^-1[p][c] target_c,
        read off the one elimination; None when phi is not bijective."""
        if not self.is_factorizable:
            return None
        dim = self.algebra.dim
        out: Row = {}
        for p, row in sorted(self._reduced().pivots.items()):
            v = dot([(c, t) for k, c in row.items()
                     if k >= dim and (t := target.get(k - dim))])
            if v:
                out[p] = v
        return out


@memoized
def drinfeld_map(A: QTAlgebra) -> DrinfeldMap:
    return DrinfeldMap(A)


@memoized
def _phi_dual_basis(A: QTAlgebra) -> list[Row]:
    """phi(e_k^*) for every k: the images of the dual basis."""
    dm = drinfeld_map(A)
    return [dm.phi({k: ONE}) for k in range(A.dim)]


# --- idempotents, conjugacy classes, K_A --------------------------------


def central_idempotents(A: QTAlgebra, chars: list[Row]) -> list[Row]:
    """E_i = chi_i(1) (Lambda <- chi_{i*}), fully cross-checked."""
    lam, _ = integrals(A)
    out = [row_scale(harpoon_left(A, lam, dual_character(A, chi)),
                     pair_eval(chi, A.unit_row)) for chi in chars]
    _check_central_idempotents(A, chars, out)
    return out


def _check_central_idempotents(A: QTAlgebra, chars: list[Row],
                               E: list[Row]) -> None:
    """E are orthogonal idempotents summing to 1, central, and chi_i(E_j)
    is chi_i(1) when i = j and 0 otherwise, for the characters chi_i of
    A-modules (simple_objects verifies each module).

    Orthogonality is checked on the diagonal only, E_j^2 = E_j, with the
    sum.  Lemma (characteristic 0): left multiplication by an idempotent
    is a projection of A, whose trace is its rank.  The traces sum to
    that of the identity, dim A, so the images, which span A, form a
    direct sum; E_i E_j lies in the image of E_i and E_j E_j = E_j in
    that of E_j, so E_i E_j = 0 for i != j.  Centrality is checked on the
    algebra generators only; see noncentral_generator for the lemma.

    The character values are checked on the diagonal only, chi_i(E_i) =
    chi_i(1).  Lemma: rho_i(E_j) is an idempotent matrix, so chi_i(E_j)
    is its rank, at least 0; and the E_j sum to 1, so the chi_i(E_j) sum
    to chi_i(1).  One of them equal to chi_i(1) forces all the others to 0.
    """
    for j, ej in enumerate(E):
        if mul_rows(A, ej, ej) != ej:
            fail(A, "central idempotent square", None, f"idempotent {j}")
        x = noncentral_generator(A, ej)
        if x is not None:
            fail(A, "idempotent centrality", x, f"idempotent {j}")
    if row_sum(E) != A.unit_row:
        fail(A, "central idempotent sum")
    for i, chi in enumerate(chars):
        if pair_eval(chi, E[i]) != pair_eval(chi, A.unit_row):
            fail(A, "character value", None, f"character {i} on idempotent {i}")


@dataclass
class CharRing:
    """Primitive idempotents F_j of the character ring, their images and
    the conjugacy classes read off them.

    j_of[s] is the block of the s-th simple: phi(F_j) is the sum of the
    central idempotents E_s with j_of[s] = j (char_ring_idempotents).
    n_values[j] is the class-equation integer dim(A)/dim(A* F_j), and
    classes[j] is the class C^j of F_j (conjugacy_class).
    """

    idempotents: list[Row]
    central: list[Row]
    j_of: list[int]
    n_values: list[int]
    classes: list[ConjClass]


def char_ring_idempotents(A: QTAlgebra, chars: list[Row]) -> CharRing:
    """The central idempotents E_s of the characters, the F_j of the
    character ring and their conjugacy classes.

    The blocks are in closed form for both kinds.  In the factorizable
    case F_j = phi^-1(E_j), every one read off the one memoized
    elimination of the matrix of phi (DrinfeldMap.invert), and block j is
    {j}.  For kG, R = 1 (x) 1 gives phi(f) = f(1) 1; the F_j are the
    class indicators, the identity class first (conjugacy_classes), so
    F_0 is the only F_j with F_j(1) != 0, and every simple lies in block
    0.  One loop checks phi(F_j) = sum of the E_s with j_of[s] = j for
    both kinds.  Lemma: the E_s are nonzero orthogonal idempotents
    (_check_central_idempotents), hence linearly independent, so phi(F_j)
    equals at most one sum of them; the check proves the blocks that a
    scan of chi_s(phi(F_j)) would derive, and j_of tiles the simples by
    construction.  The class spans must decompose A: their rows, dim A
    of them, have full rank.
    """
    E = central_idempotents(A, chars)
    dm = drinfeld_map(A)
    r = len(chars)
    if dm.is_factorizable:
        F = [dm.invert(ej) for ej in E]
        j_of = list(range(r))
    elif A.kind == "group":
        F = [{g: ONE for g in cls.members} for cls in A.group.conjugacy_classes()]
        if len(F) != r:
            fail(A, "class count = character count")
        j_of = [0] * r
    else:  # a double whose Drinfeld map is not bijective
        fail(A, "factorizability of the double")
    for j, fj in enumerate(F):
        if fj is None or dm.phi(fj) != row_sum(
                E[s] for s in range(r) if j_of[s] == j):
            fail(A, "Drinfeld-map preimage", None, f"idempotent {j}")

    lam, t = integrals(A)
    _check_char_ring_idempotents(A, chars, F, t)

    n_values: list[int] = []
    for j, (fj, size) in enumerate(zip(F, _ideal_dims(A, F))):
        if not (size > 0 and A.dim % size == 0):
            fail(A, f"dim(A* F_j) = {size} divides {A.dim}", None, f"F_{j}")
        nj = A.dim // size
        if pair_eval(fj, lam) != as_cyclo(Fraction(1, nj)):
            fail(A, f"F_j(Lambda) = 1/{nj}", None, f"F_{j}")
        n_values.append(nj)
    classes = [conjugacy_class(A, j, fj, nj)
               for j, (fj, nj) in enumerate(zip(F, n_values))]
    rows = [row for cls in classes for row in cls.space.rows]
    if not (len(rows) == A.dim and row_rank(rows, A.dim) == A.dim):
        fail(A, "class-span decomposition of the algebra")
    return CharRing(F, E, j_of, n_values, classes)


def _ideal_dims(A: QTAlgebra, F: list[Row]) -> list[int]:
    """dim A* F_j for each F_j, the span of the e_k^* * F_j.

    (e_k^* * f)(e_m) sums f(e_l) over the terms (k, l) of Delta(e_m), so
    each e_k^* * F_j is a relabel of F_j through delta_by_left (summed
    where two terms land on one index), and its image mod p the same
    relabel of F_j's image.  The ranks mod p (image_rank, each F_j over
    its own field) are certified by their sum.  Lemma: the F_j are
    orthogonal idempotents of A* summing to eps
    (_check_char_ring_idempotents), so A* = (+)_j A* F_j and the exact
    dimensions sum to dim A, while each rank mod p is at most its exact
    dimension, whatever its prime.  Ranks mod p summing to dim A are
    therefore the exact dimensions.  A shortfall, or a p dividing a
    denominator, runs the exact Echelon for every F_j.
    """
    by_left = A.delta_by_left()

    def relabels(img: dict[int, int]):
        for terms in by_left:
            row: dict[int, int] = {}
            for m, l in terms:
                v = img.get(l)
                if v:
                    row[m] = row.get(m, 0) + v
            yield row
    dims = [image_rank([fj], lambda images, p: relabels(images[0]), A.dim)
            for fj in F]
    if None not in dims and sum(dims) == A.dim:
        return dims
    return [Echelon(A.dim, (convolve(A, {k: ONE}, fj)
                            for k in range(A.dim))).dim for fj in F]


def _check_char_ring_idempotents(A: QTAlgebra, chars: list[Row],
                                 F: list[Row], t: Row) -> None:
    """F lie in the character ring, are idempotents of A* summing to eps,
    and F_0 is the integral t of A*.

    Orthogonality, F_i * F_j = 0 for i != j, follows from F_j * F_j = F_j
    and the sum by the lemma of _check_central_idempotents, applied to
    the algebra A* under convolution, whose unit is eps.
    """
    span = Echelon(A.dim, chars)
    for j, fj in enumerate(F):
        if not span.contains(fj):
            fail(A, "character-ring membership", None, f"F_{j}")
        if convolve(A, fj, fj) != fj:
            fail(A, "character-ring idempotent square", None, f"F_{j}")
    if row_sum(F) != {k: ONE for k in range(A.dim) if A.counit[k]}:
        fail(A, "character-ring idempotent sum (eps)")
    if F[0] != t:
        fail(A, "F_0 = t (the integral of A*)")


@dataclass
class ConjClass:
    """A conjugacy class of the algebra: its span and its class sum."""
    space: Echelon
    class_sum: Row


def conjugacy_class(A: QTAlgebra, j: int, fj: Row, nj: int) -> ConjClass:
    """C^j = Lambda <- F_j A* together with C_j = Lambda <- (dim A) F_j,
    for the j-th idempotent F_j of the character ring and its
    class-equation integer n_j.

    C^j is spanned by the left slices of Delta(Lambda <- F_j)
    (leg_slices), with no convolution.  Lemma: the harpoon is an action,
    a <- (f * g) = f(a_1) g(a_2) a_3 = (a <- f) <- g, so Lambda <- (F_j *
    e_k^*) = b <- e_k^* for b = Lambda <- F_j; and b <- e_k^* = e_k^*(b_1)
    b_2 is the slice l_k of Delta(b) = sum_k e_k x l_k.  As the e_k^*
    span A*, these span C^j.

    Its dimension is checked against n_j, which char_ring_idempotents
    reads off A* F_j with no harpoon.  Lemma: f |-> Lambda <- f is
    injective (Lambda is a nondegenerate integral), so dim C^j = dim F_j
    A*; and A* is semisimple (the cointegral t has t(1) = 1), where a
    left and a right ideal of one idempotent have one dimension, dim F_j
    A* = dim A* F_j = dim A / n_j.
    """
    lam, _ = integrals(A)
    b = harpoon_left(A, lam, fj)
    space = Echelon(A.dim, leg_slices(A, b)[0])
    if space.dim * nj != A.dim:
        fail(A, f"dim C^j = {A.dim}/{nj}", None, f"class {j}")
    class_sum = row_scale(b, as_cyclo(A.dim))
    if not space.contains(class_sum):
        fail(A, "class sum in its class span", None, f"class {j}")
    if counit_value(A, class_sum) != as_cyclo(Fraction(A.dim, nj)):
        fail(A, f"eps(C_j) = {A.dim}/{nj}", None, f"class {j}")
    return ConjClass(space, class_sum)


def is_left_coideal(A: QTAlgebra, space: Echelon, gens: list[Row]) -> bool:
    """Delta(L) <= A x L for the subalgebra L = space, checked slice by
    slice on the left leg of Delta(l) for l in gens, a generating set of L
    (subalgebra_generators).

    Lemma: L L <= L makes A x L a subalgebra of A x A, and Delta is
    multiplicative, so the l with Delta(l) in A x L form a subalgebra
    (holding 1, as Delta(1) = 1 x 1 and 1 is in L); holding on gens, it
    holds on all of L.
    """
    for row in gens:
        left, _ = leg_slices(A, row)
        if not all(space.contains(sl) for sl in left):
            return False
    return True


@memoized
def compute_K_A(A: QTAlgebra) -> Echelon:
    """The image of the Drinfeld map, verified to be an S-stable coideal
    subalgebra."""
    space = Echelon(A.dim, _phi_dual_basis(A))
    if not space.contains(A.unit_row):
        fail(A, "K_A unit")
    gens = subalgebra_generators(A, space)
    if gens is None:
        fail(A, "K_A product closure")
    if not all(space.contains(apply_antipode(A, a)) for a in space.rows):
        fail(A, "K_A antipode stability")
    if not is_left_coideal(A, space, gens):
        fail(A, "K_A left coideal")
    return space


# --- quasitriangular structure checks ------------------------------------


def verify_quasitriangular(A: QTAlgebra, chars: list[Row],
                           ring: CharRing) -> None:
    """Identities tying phi_R to characters, centers and conjugacy classes.

    Multiplicativity against the character ring, phi(chi * f) =
    phi(chi) phi(f), is checked for f over the dual basis e_k^*.  Lemma:
    both sides are linear in f, and the e_k^* span A*, so this is the
    identity for every f in A*.  Centrality of phi(chi) and adjoint
    stability of the class spans are checked on the algebra generators
    only; the lemmas are in noncentral_generator and ad_escape.
    """
    dm = drinfeld_map(A)
    _, t = integrals(A)

    phis = _phi_dual_basis(A)
    # phi restricted to the character ring is multiplicative and central
    for c, chi in enumerate(chars):
        img = dm.phi(chi)
        x = noncentral_generator(A, img)
        if x is not None:
            fail(A, "phi-of-character centrality", x, f"character {c}")
        for k, phi_k in enumerate(phis):
            if dm.phi(convolve(A, chi, {k: ONE})) != mul_rows(A, img, phi_k):
                fail(A, "phi multiplicativity", None,
                     f"character {c} against {A.labels[k]}^*")
        if dm.rphi(chi) != img:
            fail(A, "rphi = phi", None, f"character {c}")

    # rphi = S o phi o S* on the whole dual
    for k in range(A.dim):
        if dm.rphi({k: ONE}) != apply_antipode(A, phis[A.s_idx[k]]):
            fail(A, "rphi = S phi S*", None, f"{A.labels[k]}^*")

    # phi is the convolution of the two half maps, summed over the (m, j)
    # with e_m e_j = e_k
    for k, quotients in enumerate(left_quotients(A)):
        if row_sum(mul_rows(A, dm.f_r21({m: ONE}), dm.f_r({j: ONE}))
                   for j, m in enumerate(quotients) if m >= 0) != phis[k]:
            fail(A, "phi = f_R21 * f_R", None, f"{A.labels[k]}^*")

    # the image of the dual integral is the sum of block 0's idempotents
    if dm.phi(t) != row_sum(e for e, j in zip(ring.central, ring.j_of)
                            if j == 0):
        fail(A, "phi(t) = block-0 idempotent sum")

    _check_class_spans(A, ring.classes)


def _check_class_spans(A: QTAlgebra, classes: list[ConjClass]) -> None:
    """Each class span is stable under the adjoint action, checked on the
    generators (lemma in ad_escape), and under dual translation a |-> a <-
    S*(e_k^*) for every k, checked exhaustively."""
    for j, cls in enumerate(classes):
        x = ad_escape(A, cls.space, adjoint, cls.space.rows)
        if x is not None:
            fail(A, "class-span adjoint stability", x, f"class {j}")
    for j, cls in enumerate(classes):
        space = cls.space
        for row in space.rows:
            for k in range(A.dim):
                if not space.contains(
                        harpoon_left(A, row, {A.s_idx[k]: ONE})):
                    fail(A, "class-span dual translation", None,
                         f"class {j} against {A.labels[k]}^*")
