"""Left normal coideal subalgebras of doubles and group algebras.

For the double of kG these are spanned by the twisted sums
f_s^h = sum_{m in M} lambda(m, h) p_{ms} x h over a pair of normal,
elementwise-commuting subgroups M, H and a G-invariant bicharacter
lambda on M x H.  For the group algebra itself they are the spans of
normal subgroups.  Every constructed object is re-verified against the
defining coideal axioms rather than trusted.  A product or intersection
of two catalog entries is certified to be a given entry by a rank mod p
(lemmas at _certified_product and _certified_intersection), or read off
a certified pair that dominates it (lemmas at coideal_product and
coideal_intersect); the exact spans are the fallback.  The two routes
to (A//L)* are certified equal the same way, with the exact nullspace as
the fallback (quotient_dual), and so is a proposed integral
(coideal_integral).  Each of the last two forms its equations in one
generator (_direct_equations, _integral_equations), run over exact
values for the exact route and over their images mod p for the
certificate (linalg.image_rank, whose docstring states the reduction
lemma).  The pair certificates read the images of the catalog's rows,
reduced once per algebra (_catalog), which also keeps the pairs they
certified.

A computed space is matched to its catalog entry by key, through one
key -> position memo per algebra (_catalog_index, read by
coideal_from_space and the certificates).  The shifted route to (A//L)*
reads the left-quotient table of hopf (left_quotients), whose slots the
injectivity scan of verify_axioms makes unique.  What is decided about a
space alone, such as is_normal_hopf_subalgebra, is memoized on its key.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, ONE
from .errors import PreconditionViolated, fail
from .groups import (Group, Subgroup, abelian_coordinates, commute_elementwise,
                     memo, memoized, normal_subgroups)
from .hopf import (QTAlgebra, ad_escape, adjoint, apply_antipode,
                   counit_value, drinfeld_map, is_left_coideal, left_quotients,
                   leg_slices, lmul, mul_rows, right_adjoint,
                   subalgebra_generators)
from .linalg import (Echelon, Row, acc, image_rank, intersect, nullspace,
                     rank_modp, row_addmul, row_keys, row_scale, rows_modp)


@dataclass(frozen=True)
class Bicharacter:
    """A bicharacter M x H -> k*, stored by its full value table."""

    m_members: tuple[int, ...]
    h_members: tuple[int, ...]
    values: tuple[tuple[CycloNumber, ...], ...]  # indexed by member position

    def value(self, m: int, h: int) -> CycloNumber:
        return self.values[self.m_members.index(m)][self.h_members.index(h)]

    def inverse(self) -> "Bicharacter":
        inv = tuple(tuple(v.conjugate() for v in row) for row in self.values)
        return Bicharacter(self.m_members, self.h_members, inv)

    def key(self) -> tuple:
        order = 1
        for row in self.values:
            for v in row:
                order = order * v.order // math.gcd(order, v.order)
        return tuple(tuple(v.sort_key(order) for v in row) for row in self.values)


def enumerate_invariant_bicharacters(G: Group, M: Subgroup,
                                     H: Subgroup) -> list[Bicharacter]:
    """All G-invariant bicharacters on M x H, in a deterministic order,
    enumerated anew; invariant_bicharacters is the memoized route."""
    m_orders, m_coords = abelian_coordinates(M)
    h_orders, h_coords = abelian_coordinates(H)
    pair_orders = [[math.gcd(dm, dh) for dh in h_orders] for dm in m_orders]
    ranges = [range(pair_orders[i][j])
              for i in range(len(m_orders)) for j in range(len(h_orders))]
    out: list[Bicharacter] = []
    for flat in itertools.product(*ranges):
        c = [[flat[i * len(h_orders) + j] for j in range(len(h_orders))]
             for i in range(len(m_orders))]
        values = []
        for m in M.members:
            em = m_coords[m]
            row = []
            for h in H.members:
                eh = h_coords[h]
                v = ONE
                for i, di in enumerate(m_orders):
                    for j, dj in enumerate(h_orders):
                        g = pair_orders[i][j]
                        e = (c[i][j] * em[i] * eh[j]) % g
                        if e:
                            v = v * CycloNumber.zeta(g, e)
                row.append(v)
            values.append(tuple(row))
        bc = Bicharacter(M.members, H.members, tuple(values))
        if _bicharacter_checks(G, M, H, bc):
            out.append(bc)
    return out


def invariant_bicharacters(
        G: Group, M: Subgroup,
        H: Subgroup) -> tuple[list[Bicharacter], dict[tuple, int]]:
    """enumerate_invariant_bicharacters(G, M, H) and each one's position
    by key, enumerated once per group and pair (M, H).  The position is
    the B index of the labels and of the CLI's --triple."""
    def build():
        bcs = enumerate_invariant_bicharacters(G, M, H)
        return bcs, {bc.key(): k for k, bc in enumerate(bcs)}
    return memo(G, (invariant_bicharacters, M.members, H.members), build)


def bichar_label(G: Group, M: Subgroup, H: Subgroup,
                 bc: Bicharacter) -> str:
    """'triv' or 'B=<k>' with k the position of the G-invariant bc in the
    canonical enumeration, which starts with the trivial bicharacter."""
    k = invariant_bicharacters(G, M, H)[1][bc.key()]
    return f"B={k}" if k else "triv"


def _bicharacter_checks(G: Group, M: Subgroup, H: Subgroup,
                        bc: Bicharacter) -> bool:
    """lambda is multiplicative in each argument and G-invariant,
    lambda(x^-1 m x, h) = lambda(m, x h x^-1), for normal M and H.

    Each law is checked with its second factor m2, h2 or its x over
    generators only (Subgroup.generators, Group.generators).  Lemma: the
    m2 with lambda(m m2, h) = lambda(m, h) lambda(m2, h) for all m, h are
    closed under products: for two of them, lambda(m m2 m3, h) =
    lambda(m m2, h) lambda(m3, h) = lambda(m, h) lambda(m2, h) lambda(m3, h)
    = lambda(m, h) lambda(m2 m3, h).  In a finite group they therefore
    form a subgroup, all of M once it holds the generators; likewise for
    the h2 of H.  Conjugation of both arguments is an action of G on the
    functions on M x H (M and H are normal), and x passes exactly when it
    fixes lambda; so the x that pass form its stabilizer, a subgroup, all
    of G once it holds the generators.
    """
    mpos = {m: i for i, m in enumerate(M.members)}
    hpos = {h: i for i, h in enumerate(H.members)}
    val = bc.values
    mgens, hgens = M.generators(), H.generators()
    for m in M.members:
        for m2 in mgens:
            for h in H.members:
                if val[mpos[G.mul(m, m2)]][hpos[h]] != \
                        val[mpos[m]][hpos[h]] * val[mpos[m2]][hpos[h]]:
                    return False
    for m in M.members:
        for h in H.members:
            for h2 in hgens:
                if val[mpos[m]][hpos[G.mul(h, h2)]] != \
                        val[mpos[m]][hpos[h]] * val[mpos[m]][hpos[h2]]:
                    return False
    for x in G.generators():
        xi = G.inv[x]
        for m in M.members:
            for h in H.members:
                if val[mpos[G.conj(xi, m)]][hpos[h]] != val[mpos[m]][hpos[G.conj(x, h)]]:
                    return False
    return True


@dataclass
class CoidealSubalgebra:
    """A verified left normal coideal subalgebra with its integral, and
    the name given by the catalog that built it, if any."""

    algebra: QTAlgebra
    space: Echelon
    integral: Row
    name: str | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def key(self) -> tuple:
        return self.space.key()

    def label(self) -> str:
        return self.name or f"L(dim={self.dim})"

    def __repr__(self) -> str:
        return f"Coideal({self.label()}, dim={self.dim})"


def _generators(A: QTAlgebra, space: Echelon, label) -> list[Row]:
    """The certified generating set of the subalgebra space
    (subalgebra_generators); label() names the space when it is none."""
    gens = subalgebra_generators(A, space)
    if gens is None:
        fail(A, "coideal product closure", None, label())
    return gens


def _verify_coideal(A: QTAlgebra, space: Echelon, label) -> None:
    """A unital subalgebra and left coideal, stable under the adjoint
    action; label() names the space in a failure.  Once the product
    closure is certified, the coideal property and ad-stability are
    checked on the space's own generators (lemmas in is_left_coideal and
    ad_escape), ad-stability also on the generators of A."""
    if not space.contains(A.unit_row):
        fail(A, "coideal unit", None, label())
    gens = _generators(A, space, label)
    if not is_left_coideal(A, space, gens):
        fail(A, "left coideal", None, label())
    x = ad_escape(A, space, adjoint, gens)
    if x is not None:
        fail(A, "coideal adjoint stability", x, label())


def coideal_integral(A: QTAlgebra, space: Echelon, label,
                     proposal: Row | None) -> Row:
    """The unique idempotent left integral: l u = eps(l) u, eps(u) = 1;
    label() names the space in a failure.

    The equations and the final left-integral check run over l in the
    certified generators of L (subalgebra_generators).  Lemma: eps is
    multiplicative, so the l with l u = eps(l) u form a subalgebra
    ((l l') u = eps(l') l u = eps(l l') u, and 1 passes); holding on the
    generators, it holds on all of L.

    A proposal (build_coideal gives one, None for no proposal) is
    returned when it passes the checks the computed integral passes (in
    L, eps = 1, idempotent, l u = eps(l) u on the generators) and the
    equations over the d reduced rows of L have rank d - 1 mod p
    (image_rank over the generators and rows).  Lemma: the exact rank is
    then at least d - 1, so the solutions form at most a line; the
    proposal's coordinates lie in it, so it is the one solution with
    eps = 1.  Otherwise the exact nullspace below decides.
    """
    gens = _generators(A, space, label)
    rows = space.rows
    d, g = len(rows), len(gens)
    if (proposal is not None and space.contains(proposal)
            and counit_value(A, proposal) == ONE
            and mul_rows(A, proposal, proposal) == proposal
            and all(mul_rows(A, ell, proposal)
                    == row_scale(proposal, counit_value(A, ell))
                    for ell in gens)
            and image_rank(gens + rows, lambda im, p: _integral_equations(
                A, im[:g], im[g:], _counits_modp(A, im[:g], p)), d - 1)
            == d - 1):
        return proposal
    epsilons = [counit_value(A, ell) for ell in gens]
    kernel = nullspace(list(_integral_equations(A, gens, rows, epsilons)), d)
    best = None
    for combo in kernel.rows:
        u: Row = {}
        for ci, c in combo.items():
            u = row_addmul(u, rows[ci], c)
        e = counit_value(A, u)
        if e:
            best = row_scale(u, e.inverse())
            break
    if best is None or kernel.dim != 1:
        fail(A, "unique normalizable integral", None, label())
    if mul_rows(A, best, best) != best:
        fail(A, "coideal integral idempotence", None, label())
    for ell in gens:
        if mul_rows(A, ell, best) != row_scale(best, counit_value(A, ell)):
            fail(A, "coideal left integral", None, label())
    return best


def _integral_equations(A: QTAlgebra, gens: list, rows: list,
                        epsilons: list):
    """coideal_integral's equations l c - eps(l) c = 0 in the coefficients
    of the rows c, one per generator l (with eps(l) in epsilons) and slot,
    a generator at a time.  The same code runs over exact rows and over
    their images mod p: the products go through mul_rows, whose prod_idx
    products carry coefficient one."""
    for ell, eps in zip(gens, epsilons):
        eqs: dict[int, dict] = {}
        for ci, cand in enumerate(rows):
            diff = row_addmul(mul_rows(A, ell, cand), cand, -eps)
            for slot, c in diff.items():
                acc(eqs.setdefault(slot, {}), ci, c)
        yield from eqs.values()


def _counits_modp(A: QTAlgebra, images: list[dict[int, int]],
                  p: int) -> list[int]:
    """eps of each image mod p, reduced mod p."""
    return [sum(v for j, v in img.items() if A.counit[j]) % p
            for img in images]


def _wrap(A: QTAlgebra, space: Echelon, name: str | None,
          proposal: Row | None) -> CoidealSubalgebra:
    """The verified coideal on space, under name (None for none), with
    its integral; proposal as in coideal_integral."""
    L = CoidealSubalgebra(A, space, {}, name)
    _verify_coideal(A, space, L.label)
    L.integral = coideal_integral(A, space, L.label, proposal)
    return L


def coideal_triples(
        G: Group) -> Iterator[tuple[Subgroup, Subgroup, Bicharacter]]:
    """(M, H, lambda) for normal, elementwise-commuting M and H and each
    G-invariant bicharacter lambda on M x H, in the canonical order."""
    normals = normal_subgroups(G)
    for M in normals:
        for H in normals:
            if commute_elementwise(M, H):
                for bc in invariant_bicharacters(G, M, H)[0]:
                    yield M, H, bc


def triple_coideal(A: QTAlgebra, M: Subgroup, H: Subgroup,
                   bc: Bicharacter) -> CoidealSubalgebra:
    """C(M, H, lambda), built and verified once per algebra."""
    key = (triple_coideal, tuple(sorted(M.members)),
           tuple(sorted(H.members)), bc.key())
    return memo(A, key, lambda: build_coideal(A, M, H, bc))


def build_coideal(A: QTAlgebra, M: Subgroup, H: Subgroup,
                  bc: Bicharacter) -> CoidealSubalgebra:
    """C(M, H, lambda) inside the double of kG, built and verified anew;
    triple_coideal is the cached route."""
    if A.kind != "double":
        raise PreconditionViolated("triple coideals live in a double")
    G = A.group
    if not _is_normal(G, M) or not _is_normal(G, H):
        raise PreconditionViolated("M and H must be normal subgroups")
    if not commute_elementwise(M, H):
        raise PreconditionViolated("M and H must commute elementwise")
    if not _bicharacter_checks(G, M, H, bc):
        raise PreconditionViolated("lambda is not a G-invariant bicharacter")
    mpos = {m: i for i, m in enumerate(M.members)}
    hpos = {h: i for i, h in enumerate(H.members)}
    cosets = _coset_reps(G, M)
    rows: list[Row] = []
    for h in H.members:
        hi = hpos[h]
        for s in cosets:
            row: Row = {}
            for m in M.members:
                v = bc.values[mpos[m]][hi]
                row[A.pair_index(G.mul(m, s), h)] = v
            rows.append(row)
    name = (f"C(M={list(M.members)},H={list(H.members)},"
            f"{bichar_label(G, M, H, bc)})")
    space = Echelon(A.dim, rows)
    if space.dim != len(H.members) * len(cosets):
        fail(A, "twisted sum independence", None, name)
    # the proposed integral (1/|H|) sum_h f_1^h, which coideal_integral
    # certifies
    scale = CycloNumber.rational(Fraction(1, len(H.members)))
    proposal = {A.pair_index(m, h): bc.values[mpos[m]][hpos[h]] * scale
                for h in H.members for m in M.members}
    return _wrap(A, space, name, proposal)


def _is_normal(G: Group, S: Subgroup) -> bool:
    return all(G.conj(x, s) in S.members for x in range(G.n) for s in S.members)


def _coset_reps(G: Group, M: Subgroup) -> list[int]:
    seen: set[int] = set()
    reps: list[int] = []
    for g in range(G.n):
        if g in seen:
            continue
        reps.append(g)
        for m in M.members:
            seen.add(G.mul(m, g))
    return reps


def group_coideal(A: QTAlgebra, N: Subgroup) -> CoidealSubalgebra:
    """The span of a normal subgroup inside the group algebra, built and
    verified once per algebra."""
    if A.kind != "group":
        raise PreconditionViolated("subgroup coideals live in a group algebra")
    if not _is_normal(A.group, N):
        raise PreconditionViolated("subgroup is not normal")
    return memo(A, (group_coideal, N.members), lambda: _wrap(
        A, Echelon(A.dim, [{g: ONE} for g in N.members]),
        f"k[N={list(N.members)}]", None))


@memoized
def enumerate_coideals(A: QTAlgebra) -> list[CoidealSubalgebra]:
    """All left normal coideal subalgebras, deduplicated and sorted."""
    found: dict[tuple, CoidealSubalgebra] = {}
    if A.kind == "double":
        for M, H, bc in coideal_triples(A.group):
            L = triple_coideal(A, M, H, bc)
            found.setdefault(L.key(), L)
    else:  # "group", the only other kind
        for N in normal_subgroups(A.group):
            L = group_coideal(A, N)
            found.setdefault(L.key(), L)
    return sorted(found.values(), key=lambda L: (L.dim, L.key()))


@memoized
def _catalog_index(A: QTAlgebra) -> dict[tuple, int]:
    """The position of each entry of enumerate_coideals(A), by its key."""
    return {L.key(): i for i, L in enumerate(enumerate_coideals(A))}


def coideal_from_space(A: QTAlgebra, space: Echelon) -> CoidealSubalgebra:
    """Wrap a subspace as a verified coideal, reusing the catalog entry on
    the same space, looked up by key (_catalog_index).

    A key reads the stored form of each value (Echelon.key), and equal
    values can be stored at different orders (see cyclo): the kernels of
    generated_subcategory on D(Z6) hold -1 + z(6) where the catalog holds
    z(3).  So a space whose key is no entry's is compared exactly with
    the entries of its dimension before it is wrapped anew.
    """
    cos = enumerate_coideals(A)
    i = _catalog_index(A).get(space.key())
    if i is not None:
        return cos[i]
    for L in cos:
        if L.dim == space.dim and L.space == space:
            return L
    return _wrap(A, space, None, None)


# --- derived constructions ----------------------------------------------


@dataclass
class _Catalog:
    """What the certificates of coideal_product and coideal_intersect read,
    built once per algebra from enumerate_coideals: the containment order
    as bitmasks (bit k of up[i] when entry i lies in entry k, by exact
    Echelon.__le__, and bit i of down[k] likewise), and the prime p and
    each entry's reduced rows mod p of one rows_modp over all entries
    (None when p divides one of their denominators).  Entries are found
    by position (_catalog_index).

    Bit j of products[i] (meets[i]) is set once the product
    (intersection) of the entries i and j is known: certified, or
    dominated by a certified pair (lemmas at coideal_product and
    coideal_intersect, which set and read them)."""

    entries: list[CoidealSubalgebra]
    up: list[int]
    down: list[int]
    p: int
    rows: list[list[dict[int, int]]] | None
    products: list[int]
    meets: list[int]


@memoized
def _catalog(A: QTAlgebra) -> _Catalog:
    cos = enumerate_coideals(A)
    n = len(cos)
    # the catalog is deduplicated, so distinct entries of one dimension
    # are incomparable
    up = [sum(1 << k for k, M in enumerate(cos)
              if i == k or (L.dim < M.dim and L.space <= M.space))
          for i, L in enumerate(cos)]
    down = [sum(1 << i for i in range(n) if up[i] >> k & 1)
            for k in range(n)]
    p, images = rows_modp([r for L in cos for r in L.space.rows])
    rows = None
    if images is not None:
        it = iter(images)
        rows = [list(itertools.islice(it, L.dim)) for L in cos]
    return _Catalog(cos, up, down, p, rows, [0] * n, [0] * n)


def _positions(A: QTAlgebra, L1: CoidealSubalgebra,
               L2: CoidealSubalgebra) -> tuple[_Catalog, int | None, int | None]:
    """The catalog, and the positions of L1 and L2 in it (None for no
    entry)."""
    index = _catalog_index(A)
    return _catalog(A), index.get(L1.key()), index.get(L2.key())


def _within(cat: _Catalog, i: int | None, j: int | None,
            L1: CoidealSubalgebra, L2: CoidealSubalgebra) -> bool:
    """L1 <= L2, read off the catalog order when both are entries, at
    positions i and j."""
    if i is None or j is None:
        return L1.space <= L2.space
    return bool(cat.up[i] >> j & 1)


def _know(known: list[int], xs: int, ys: int) -> None:
    """Mark the pairs (x, y) and (y, x) as known, for x in the bitmask xs
    and y in ys."""
    for mask, other in ((xs, ys), (ys, xs)):
        while mask:
            low = mask & -mask
            known[low.bit_length() - 1] |= other
            mask ^= low


def _certified_product(A: QTAlgebra, cat: _Catalog, i: int, j: int,
                       k: int) -> CoidealSubalgebra | None:
    """The catalog entry C at position k, the first containing the
    entries L1, L2 at positions i, j, when a certificate shows L1 L2 = C
    (and L2 L1 = C unless C = A), or None.

    Lemma: C is the smallest entry containing L1 and L2.  C is a
    subalgebra, so L1 L2 <= C.  The products of the rows mod p are the
    images of the exact products (mul_rows, whose prod_idx products all
    carry coefficient one, runs on the integer rows), so rank_p{a b} <=
    dim L1 L2, and rank_p = dim C gives L1 L2 = C; and when L1 L2 is an
    entry, it is C, the smallest entry containing both.
    """
    if cat.rows is None:
        return None
    C = cat.entries[k]
    orders = [(i, j)] if C.dim == A.dim else [(i, j), (j, i)]
    for x, y in orders:
        products = (mul_rows(A, a, b) for a in cat.rows[x]
                    for b in cat.rows[y])
        if rank_modp(products, cat.p, C.dim) < C.dim:
            return None
    return C


def _certified_intersection(cat: _Catalog, i: int, j: int,
                            k: int) -> CoidealSubalgebra | None:
    """The catalog entry D at position k, the last inside the entries L1,
    L2 at positions i, j, when a certificate shows L1 & L2 = D, or None.

    Lemma: D is the largest entry inside L1 and L2, so D <= L1 & L2.
    dim(L1 & L2) = dim L1 + dim L2 - dim(L1 + L2), and the rank mod p of
    the rows of L1 and L2 together is at most dim(L1 + L2).  So a rank
    mod p of dim L1 + dim L2 - dim D bounds dim(L1 & L2) by dim D, and
    L1 & L2 = D.
    """
    if cat.rows is None:
        return None
    D = cat.entries[k]
    target = cat.entries[i].dim + cat.entries[j].dim - D.dim
    if rank_modp(itertools.chain(cat.rows[i], cat.rows[j]), cat.p,
                 target) < target:
        return None
    return D


def _span_product(A: QTAlgebra, L1: CoidealSubalgebra,
                  L2: CoidealSubalgebra) -> Echelon:
    # a loop rather than Echelon(A.dim, rows): it stops at full dimension
    ech = Echelon(A.dim)
    for a in L1.space.rows:
        for b in L2.space.rows:
            ech.insert(mul_rows(A, a, b))
            if ech.dim == A.dim:
                return ech
    return ech


def coideal_product(A: QTAlgebra, L1: CoidealSubalgebra,
                    L2: CoidealSubalgebra) -> CoidealSubalgebra:
    """The span of all products l1*l2, again a coideal subalgebra.

    Two catalog entries give the catalog entry C, the first containing
    both: read off the catalog when a certified pair dominates them, or
    else from a new certificate (_certified_product), after which the
    catalog marks every pair that it dominates (_Catalog.products);
    otherwise, or when the certificate falls short, the exact span is
    built and checked against L2 L1.

    Lemma (propagation): let L L' = C be certified, with L <= L1 <= C and
    L' <= L2 <= C.  Then C = L L' <= L1 L2 <= C, as C is a subalgebra;
    and C is then the first entry containing L1 and L2.  The same holds
    in either order, as the products of two entries do not depend on it:
    l l' = ad(l_1)(l') l_2, with l_2 in L (a left coideal) and
    ad(l_1)(l') in L' (ad-stable, _verify_coideal), so L L' <= L' L, and
    likewise L' L <= L L'.  So both orders of a pair are marked; below
    C = A the certificate has checked both itself.  Pairs asked in
    ascending catalog order, as lattice-duality asks them, then need a
    certificate only where no certified pair with the same C lies below.
    """
    cat, i, j = _positions(A, L1, L2)
    if _within(cat, i, j, L1, L2):
        return L2
    if _within(cat, j, i, L2, L1):
        return L1
    if i is not None and j is not None:
        # the lowest bit: the first entry containing both, which the full
        # algebra, the last entry, always is
        both = cat.up[i] & cat.up[j]
        k = (both & -both).bit_length() - 1
        if cat.products[i] >> j & 1:
            return cat.entries[k]
        C = _certified_product(A, cat, i, j, k)
        if C is not None:
            _know(cat.products, cat.up[i] & cat.down[k],
                  cat.up[j] & cat.down[k])
            return C
    space = _span_product(A, L1, L2)
    if space.dim < A.dim:
        if space != _span_product(A, L2, L1):
            fail(A, "coideal product symmetry", None,
                 f"{L1.label()} * {L2.label()}")
    return coideal_from_space(A, space)


def coideal_intersect(A: QTAlgebra, L1: CoidealSubalgebra,
                      L2: CoidealSubalgebra) -> CoidealSubalgebra:
    """L1 & L2.  Two catalog entries give the catalog entry D, the last
    inside both: read off the catalog when a certified pair dominates
    them, or else from a new certificate (_certified_intersection), after
    which the catalog marks every pair that it dominates (_Catalog.meets);
    otherwise, or when the certificate falls short, the exact
    intersection.

    Lemma (propagation): let L & L' = D be certified, with D <= L1 <= L
    and D <= L2 <= L'.  Then D <= L1 & L2 <= L & L' = D; and D is then
    the last entry inside L1 and L2.  So pairs asked in descending
    catalog order, as lattice-duality asks them, need a certificate only
    where no certified pair with the same D lies above.
    """
    cat, i, j = _positions(A, L1, L2)
    if _within(cat, i, j, L1, L2):
        return L1
    if _within(cat, j, i, L2, L1):
        return L2
    if i is not None and j is not None:
        # the highest bit: the last entry inside both, which the trivial
        # coideal, the first entry, always is
        k = (cat.down[i] & cat.down[j]).bit_length() - 1
        if cat.meets[i] >> j & 1:
            return cat.entries[k]
        D = _certified_intersection(cat, i, j, k)
        if D is not None:
            _know(cat.meets, cat.down[i] & cat.up[k],
                  cat.down[j] & cat.up[k])
            return D
    return coideal_from_space(A, intersect(L1.space, L2.space))


@memoized
def _left_factors(A: QTAlgebra) -> list[list[int]]:
    """cols[j]: the ascending k with e_k e_j != 0, column j of prod_idx."""
    cols: list[list[int]] = [[] for _ in range(A.dim)]
    for k, row in enumerate(A.prod_idx):
        for j, m in enumerate(row):
            if m >= 0:
                cols[j].append(k)
    return cols


def _direct_equations(A: QTAlgebra, gens: list, epsilons: list):
    """The direct route's nonzero equations e_k l - eps(l) e_k, each the
    relabel of its generator l (with eps(l) in epsilons) through row k of
    prod_idx, a generator at a time and by ascending k.  The same code
    runs over exact generators and over their images mod p.

    When eps(l) = 0, the equation of e_k is zero unless e_k e_j != 0 for
    some j in the support of l, so only those k are formed
    (_left_factors).
    """
    cols = _left_factors(A)
    for ell, eps in zip(gens, epsilons):
        ks = (range(A.dim) if eps
              else sorted({k for j in ell for k in cols[j]}))
        for k in ks:
            row = lmul(A, k, ell)
            acc(row, k, -eps)
            if row:
                yield row


def quotient_dual(A: QTAlgebra, L: CoidealSubalgebra) -> Echelon:
    """(A//L)* as functionals killing the augmentation ideal of L.

    Two routes: the direct one, the solution space of f(a l) = eps(l)
    f(a), and the shifted one, the translate Lambda_L -> A*, spanned by
    the a |-> e_k^*(a Lambda_L); the two must agree.  The direct route
    takes l over the certified generators of L only.  Lemma: for each f,
    the l with f(a l) = eps(l) f(a) for every a form a subalgebra (f(a l
    l') = eps(l') f(a l) = eps(l l') f(a), and 1 passes).  The two routes
    share only those generators, certified before either reads them (the
    integral is computed over them too).

    The agreement is certified mod p (image_rank), with no exact
    nullspace.  Lemma:
    shifted <= direct.  For every generator l, l Lambda_L = eps(l)
    Lambda_L (coideal_integral checks it, and it is checked again here),
    so e_k^*(a l Lambda_L) = eps(l) e_k^*(a Lambda_L); and the shifted
    rows read Lambda_L through left_quotients, which inverts prod_idx
    (the lemma is in its docstring).  dim direct = dim A - rank of
    the equations <= dim A - rank_p, so a rank mod p of dim A - dim
    shifted gives dim direct <= dim shifted, and direct = shifted.  The
    rank is run to the end, so a rank above that, which shifted <= direct
    rules out, shows; a prime dividing a denominator, a shortfall, an
    excess or a generator failing the premise runs the exact nullspace of
    the same equations (_direct_equations) and compares.

    Together the two routes certify A L+ = A (1 - Lambda_L), of dimension
    dim A - dim A/dim L.  Lemma: the direct route is the annihilator of
    A L+, the shifted one that of A (1 - Lambda_L), the a with
    a Lambda_L = 0 (Lambda_L is idempotent, see coideal_integral).
    """
    def build() -> Echelon:
        gens = _generators(A, L.space, L.label)
        # Lambda_L -> e_k^* is a |-> e_k^*(a Lambda_L): on e_m it reads
        # the coefficient of Lambda_L at the j with e_m e_j = e_k.  Each
        # distinct row is inserted once (a repeat reduces to zero): row k
        # is fixed by its pairs (m, class of the value at j) over equal
        # values of Lambda_L, each pair coded as one integer
        value_class: dict[tuple, int] = {}
        cls = {j: value_class.setdefault(v, len(value_class))
               for j, v in row_keys([L.integral])[0]}
        ncls = len(value_class)
        lq = left_quotients(A)
        rows: dict[tuple, Row] = {}
        for k in range(A.dim):
            terms = sorted((m, j) for j in L.integral
                           if (m := lq[k][j]) >= 0)
            key = tuple(m * ncls + cls[j] for m, j in terms)
            if key and key not in rows:
                rows[key] = {m: L.integral[j] for m, j in terms}
        shifted = Echelon(A.dim, rows.values())
        premise = all(
            mul_rows(A, ell, L.integral)
            == row_scale(L.integral, counit_value(A, ell)) for ell in gens)
        if not (premise and image_rank(gens, lambda im, p: _direct_equations(
                A, im, _counits_modp(A, im, p)), A.dim)
                == A.dim - shifted.dim):
            eqs = _direct_equations(
                A, gens, [counit_value(A, ell) for ell in gens])
            if nullspace(list(eqs), A.dim) != shifted:
                fail(A, "agreement of the two (A//L)* routes", None,
                     L.label())
        if not (A.dim % L.dim == 0 and shifted.dim == A.dim // L.dim):
            fail(A, "(A//L)* dimension", None, L.label())
        return shifted
    # the premise above reads the integral: the cached (A//L)* is served
    # only to an L carrying the integral it was built from
    integral, dual = memo(A, (quotient_dual, L.key()),
                          lambda: (L.integral, build()))
    return dual if integral == L.integral else build()


def dual_coideal(A: QTAlgebra, L: CoidealSubalgebra) -> CoidealSubalgebra:
    """The image of (A//L)* under the Drinfeld map, as a coideal."""
    dm = drinfeld_map(A)
    rows = [dm.phi(f) for f in quotient_dual(A, L).rows]
    return coideal_from_space(A, Echelon(A.dim, rows))


def is_normal_hopf_subalgebra(A: QTAlgebra, L: CoidealSubalgebra) -> bool:
    """Antipode-stable, Delta(L) <= L x L, and closed under both adjoint
    actions (checked on the generators of A and of L, see ad_escape);
    decided once per space, the only thing it reads."""
    def build() -> bool:
        space = L.space
        gens = subalgebra_generators(A, space)
        if gens is None:
            return False
        for row in space.rows:
            left, right = leg_slices(A, row)
            if not all(space.contains(v)
                       for v in [apply_antipode(A, row), *left, *right]):
                return False
        return (ad_escape(A, space, adjoint, gens) is None
                and ad_escape(A, space, right_adjoint, gens) is None)
    return memo(A, (is_normal_hopf_subalgebra, L.key()), build)
