"""Left normal coideal subalgebras of doubles and group algebras.

For the double of kG these are spanned by the twisted sums
f_s^h = sum_{m in M} lambda(m, h) p_{ms} x h over a pair of normal,
elementwise-commuting subgroups M, H and a G-invariant bicharacter
lambda on M x H.  For the group algebra itself they are the spans of
normal subgroups.  Every constructed object is re-verified against the
defining coideal axioms rather than trusted.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .cyclo import CycloNumber, ONE
from .errors import (InternalMismatch, NoIntegral, PreconditionViolated,
                     require)
from .groups import (Group, Subgroup, commutator_subgroup, commute_elementwise,
                     exponent_tables, normal_subgroups, quotient_group,
                     subgroup_generated)
from .hopf import (QTAlgebra, Subspace, adjoint, apply_antipode, convolve,
                   counit_value, drinfeld_map, func_harpoon_left,
                   is_left_coideal, leg_slices, memo, memoized, mul_rows,
                   pair_eval, right_adjoint)
from .linalg import (Echelon, Row, acc, intersect, nullspace, row_addmul,
                     row_scale)


@dataclass(frozen=True)
class Bicharacter:
    """A bicharacter M x H -> k*, stored by its full value table."""

    m_members: tuple[int, ...]
    h_members: tuple[int, ...]
    values: tuple[tuple[CycloNumber, ...], ...]  # indexed by member position

    def value(self, m: int, h: int) -> CycloNumber:
        return self.values[self.m_members.index(m)][self.h_members.index(h)]

    def op(self) -> "Bicharacter":
        flipped = tuple(tuple(self.values[i][j] for i in range(len(self.m_members)))
                        for j in range(len(self.h_members)))
        return Bicharacter(self.h_members, self.m_members, flipped)

    def inverse(self) -> "Bicharacter":
        inv = tuple(tuple(v.conjugate() for v in row) for row in self.values)
        return Bicharacter(self.m_members, self.h_members, inv)

    def is_trivial(self) -> bool:
        return all(v == ONE for row in self.values for v in row)

    def key(self) -> tuple:
        order = 1
        for row in self.values:
            for v in row:
                order = order * v.order // math.gcd(order, v.order)
        return tuple(tuple(v.sort_key(order) for v in row) for row in self.values)


def _abelian_coordinates(G: Group, S: Subgroup):
    """Cyclic generator orders and exponent coordinates of S modulo [S, S]."""
    SG, pos = S.as_group()
    full = subgroup_generated(SG, list(range(SG.n)))
    derived = commutator_subgroup(full)
    Q, coset_of = quotient_group(full, derived)
    gens, coords = exponent_tables(Q)
    orders = [d for _, d in gens]
    member_coords = {m: coords[coset_of[pos[m]]] for m in S.members}
    return orders, member_coords


def enumerate_invariant_bicharacters(G: Group, M: Subgroup,
                                     H: Subgroup) -> list[Bicharacter]:
    """All G-invariant bicharacters on M x H, in a deterministic order."""
    m_orders, m_coords = _abelian_coordinates(G, M)
    h_orders, h_coords = _abelian_coordinates(G, H)
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


def bichar_label(A: QTAlgebra, mspec, hspec, bc: Bicharacter) -> str:
    """'triv' or 'B=<k>' with k the position in the canonical enumeration,
    whose keys are listed once per algebra and (M, H)."""
    if bc.is_trivial():
        return "triv"
    M = Subgroup(A.group, tuple(sorted(mspec)))
    H = Subgroup(A.group, tuple(sorted(hspec)))
    keys = memo(A, (bichar_label, M.members, H.members), lambda: [
        c.key() for c in enumerate_invariant_bicharacters(A.group, M, H)])
    key = bc.key()
    return f"B={keys.index(key)}" if key in keys else "B=?"


def _bicharacter_checks(G: Group, M: Subgroup, H: Subgroup,
                        bc: Bicharacter) -> bool:
    mpos = {m: i for i, m in enumerate(M.members)}
    hpos = {h: i for i, h in enumerate(H.members)}
    val = bc.values
    for m in M.members:
        for m2 in M.members:
            for h in H.members:
                if val[mpos[G.mul(m, m2)]][hpos[h]] != \
                        val[mpos[m]][hpos[h]] * val[mpos[m2]][hpos[h]]:
                    return False
    for m in M.members:
        for h in H.members:
            for h2 in H.members:
                if val[mpos[m]][hpos[G.mul(h, h2)]] != \
                        val[mpos[m]][hpos[h]] * val[mpos[m]][hpos[h2]]:
                    return False
    for x in range(G.n):
        xi = G.inv[x]
        for m in M.members:
            for h in H.members:
                if val[mpos[G.conj(xi, m)]][hpos[h]] != val[mpos[m]][hpos[G.conj(x, h)]]:
                    return False
    return True


@dataclass
class CoidealSubalgebra:
    """A verified left normal coideal subalgebra with its integral."""

    algebra: QTAlgebra
    space: Subspace
    integral: Row
    mspec: tuple[int, ...] | None = None
    hspec: tuple[int, ...] | None = None
    bichar: Bicharacter | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def key(self) -> tuple:
        return self.space.key()

    def label(self) -> str:
        if self.mspec is not None and self.hspec is None:
            return f"k[N={list(self.mspec)}]"
        if self.mspec is None:
            return f"L(dim={self.dim})"
        lam = bichar_label(self.algebra, self.mspec, self.hspec, self.bichar)
        return (f"C(M={list(self.mspec)},H={list(self.hspec)},{lam})")

    def __repr__(self) -> str:
        return f"Coideal({self.label()}, dim={self.dim})"


def _verify_coideal(A: QTAlgebra, space: Subspace) -> None:
    require(space.contains(A.unit_row), "coideal misses the unit")
    rows = space.rows
    for a in rows:
        for b in rows:
            require(space.contains(mul_rows(A, a, b)),
                    "coideal is not closed under the product")
    require(is_left_coideal(A, space), "subspace is not a left coideal")
    for row in rows:
        for x in range(A.dim):
            require(space.contains(adjoint(A, x, row)),
                    "coideal is not stable under the adjoint action")


def coideal_integral(A: QTAlgebra, space: Subspace) -> Row:
    """The unique idempotent left integral: l u = eps(l) u, eps(u) = 1."""
    rows = space.rows
    d = len(rows)
    eqs: dict[tuple[int, int], Row] = {}
    for li, ell in enumerate(rows):
        epsl = counit_value(A, ell)
        for ci, cand in enumerate(rows):
            prod = mul_rows(A, ell, cand)
            diff = row_addmul(prod, cand, -epsl)
            for slot, c in diff.items():
                acc(eqs.setdefault((li, slot), {}), ci, c)
    combos = nullspace(list(eqs.values()), d)
    best = None
    for combo in combos:
        u: Row = {}
        for ci, c in combo.items():
            u = row_addmul(u, rows[ci], c)
        e = counit_value(A, u)
        if e:
            best = row_scale(u, e.inverse())
            break
    if best is None or len(combos) != 1:
        raise NoIntegral("coideal has no unique normalizable integral")
    require(mul_rows(A, best, best) == best, "coideal integral is not idempotent")
    for ell in rows:
        require(mul_rows(A, ell, best) == row_scale(best, counit_value(A, ell)),
                "coideal integral is not a left integral")
    return best


def _wrap(A: QTAlgebra, space: Subspace, mspec=None, hspec=None,
          bichar=None) -> CoidealSubalgebra:
    _verify_coideal(A, space)
    lam = coideal_integral(A, space)
    return CoidealSubalgebra(A, space, lam, mspec, hspec, bichar)


def coideal_triples(
        G: Group) -> Iterator[tuple[Subgroup, Subgroup, Bicharacter]]:
    """(M, H, lambda) for normal, elementwise-commuting M and H and each
    G-invariant bicharacter lambda on M x H, in the canonical order."""
    normals = normal_subgroups(G)
    for M in normals:
        for H in normals:
            if commute_elementwise(M, H):
                for bc in enumerate_invariant_bicharacters(G, M, H):
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
    space = Subspace(rows, A.dim)
    require(space.dim == len(H.members) * len(cosets),
            "twisted sums are not linearly independent")
    return _wrap(A, space, M.members, H.members, bc)


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
    """The span of a normal subgroup inside the group algebra."""
    if A.kind != "group":
        raise PreconditionViolated("subgroup coideals live in a group algebra")
    if not _is_normal(A.group, N):
        raise PreconditionViolated("subgroup is not normal")
    space = Subspace([{g: ONE} for g in N.members], A.dim)
    return _wrap(A, space, mspec=N.members)


@memoized
def enumerate_coideals(A: QTAlgebra) -> list[CoidealSubalgebra]:
    """All left normal coideal subalgebras, deduplicated and sorted."""
    found: dict[tuple, CoidealSubalgebra] = {}
    if A.kind == "double":
        for M, H, bc in coideal_triples(A.group):
            L = triple_coideal(A, M, H, bc)
            found.setdefault(L.key(), L)
    elif A.kind == "group":
        for N in normal_subgroups(A.group):
            L = group_coideal(A, N)
            found.setdefault(L.key(), L)
    else:
        raise PreconditionViolated("no coideal catalog for this algebra kind")
    return sorted(found.values(), key=lambda L: (L.dim, L.key()))


def coideal_from_space(A: QTAlgebra, space: Subspace) -> CoidealSubalgebra:
    """Wrap a subspace as a verified coideal, reusing a catalog entry when
    the same space was already enumerated."""
    for L in enumerate_coideals(A):
        if L.dim == space.dim and L.space == space:
            return L
    return _wrap(A, space)


# --- derived constructions ----------------------------------------------


def _span_product(A: QTAlgebra, L1: CoidealSubalgebra,
                  L2: CoidealSubalgebra, reverse: bool = False) -> Echelon:
    ech = Echelon(A.dim)
    for a in L1.space.rows:
        for b in L2.space.rows:
            ech.insert(mul_rows(A, b, a) if reverse else mul_rows(A, a, b))
            if ech.rank == A.dim:
                return ech
    return ech


def coideal_product(A: QTAlgebra, L1: CoidealSubalgebra,
                    L2: CoidealSubalgebra) -> CoidealSubalgebra:
    """The span of all products l1*l2, again a coideal subalgebra."""
    if L1.space <= L2.space:
        return L2
    if L2.space <= L1.space:
        return L1
    space = Subspace(_span_product(A, L1, L2).rows(), A.dim)
    if space.dim < A.dim:
        sym = Subspace(_span_product(A, L1, L2, reverse=True).rows(), A.dim)
        require(space == sym, "coideal product is not symmetric")
    return coideal_from_space(A, space)


def coideal_intersect(A: QTAlgebra, L1: CoidealSubalgebra,
                      L2: CoidealSubalgebra) -> CoidealSubalgebra:
    if L1.space <= L2.space:
        return L1
    if L2.space <= L1.space:
        return L2
    rows = intersect(L1.space.rows, L2.space.rows, A.dim)
    return coideal_from_space(A, Subspace(rows, A.dim))


def quotient_dual(A: QTAlgebra, L: CoidealSubalgebra) -> Subspace:
    """(A//L)* as functionals killing the augmentation ideal of L.

    Computed two ways: as the solution space of f(a l) = eps(l) f(a)
    and as the translate Lambda_L -> A*; the two must agree.
    """
    def build() -> Subspace:
        eqs: list[Row] = []
        for ell in L.space.rows:
            epsl = counit_value(A, ell)
            for k in range(A.dim):
                row = mul_rows(A, A.basis(k), ell)
                acc(row, k, -epsl)
                if row:
                    eqs.append(row)
        direct = Subspace(nullspace(eqs, A.dim), A.dim)
        shifted = Subspace([func_harpoon_left(A, L.integral, {k: ONE})
                            for k in range(A.dim)], A.dim)
        if direct != shifted:
            raise InternalMismatch("two descriptions of (A//L)* disagree")
        require(A.dim % L.dim == 0 and direct.dim == A.dim // L.dim,
                "(A//L)* has the wrong dimension")
        return direct
    return memo(A, (quotient_dual, L.key()), build)


def dual_coideal(A: QTAlgebra, L: CoidealSubalgebra) -> CoidealSubalgebra:
    """The image of (A//L)* under the Drinfeld map, as a coideal."""
    dm = drinfeld_map(A)
    rows = [dm.phi(f) for f in quotient_dual(A, L).rows]
    return coideal_from_space(A, Subspace(rows, A.dim))


def augmentation_ideal(A: QTAlgebra, L: CoidealSubalgebra) -> Subspace:
    """A L+ = A (1 - Lambda_L)."""
    one_minus = row_addmul(A.unit_row, L.integral, -ONE)
    rows = [mul_rows(A, A.basis(k), one_minus) for k in range(A.dim)]
    space = Subspace(rows, A.dim)
    require(space.dim == A.dim - A.dim // L.dim, "A L+ has the wrong dimension")
    return space


def recover_from_dual(A: QTAlgebra, L: CoidealSubalgebra) -> Subspace:
    """L reconstructed as {a : (g * f)(a) = f(1) g(a) for all f, g}."""
    dual = quotient_dual(A, L)
    constraints: list[Row] = []
    for f in dual.rows:
        f1 = pair_eval(f, A.unit_row)
        for k in range(A.dim):
            g = {k: ONE}
            row = row_addmul(convolve(A, g, f), g, -f1)
            if row:
                constraints.append(row)
    return Subspace(nullspace(constraints, A.dim), A.dim)


def is_normal_hopf_subalgebra(A: QTAlgebra, L: CoidealSubalgebra) -> bool:
    """Antipode-stable, Delta(L) <= L x L, and closed under both adjoint
    actions."""
    space = L.space
    for row in space.rows:
        if not space.contains(apply_antipode(A, row)):
            return False
        left, right = leg_slices(A, row)
        if not all(space.contains(sl) for sl in left + right):
            return False
        for x in range(A.dim):
            adj = adjoint(A, x, row)
            radj = right_adjoint(A, x, row)
            if not (space.contains(adj) and space.contains(radj)):
                return False
    return True
