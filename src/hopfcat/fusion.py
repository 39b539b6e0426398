"""Simple modules, the S-matrix, and fusion subcategories.

Simple modules of the double of kG are induced from centralizer
subgroups: one module per pair (conjugacy class of a, irreducible
character chi of C_G(a)).  Subcategories come in two independent
descriptions, a parameterized one S(M, H, lambda) and a brute-force
closure enumeration; the two are always cross-checked.  Centralizers
of subcategories can be computed three ways (S-matrix test, image of
the Drinfeld map, class sum membership) which the acceptance suite
requires to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .chartab import CharacterTable, character_table
from .coideal import (Bicharacter, CoidealSubalgebra, bichar_label,
                      coideal_from_space, coideal_triples, dual_coideal,
                      group_coideal, quotient_dual, triple_coideal)
from .cyclo import CycloNumber, ONE, ZERO, fmt_cyclo
from .errors import MethodPreconditionViolated, PreconditionViolated, fail
from .groups import (Subgroup, centralizer_subgroup, memoized,
                     normal_subgroups)
from .hopf import (QTAlgebra, all_classes, char_ring_idempotents, coinvariants,
                   convolve, drinfeld_map, dual_character, generators,
                   harpoon_right, integrals, pair_eval)
from .linalg import Echelon, Row, acc, intersect, row_rank, row_scale
from .reps import Matrix, mat_mul, matrix_irrep

S_BOUND_TOL = 1e-9


@dataclass
class SimpleObject:
    """An irreducible module, carried with exact action matrices."""

    algebra: QTAlgebra
    index: int
    class_index: int
    rep_index: int
    a: int
    dim: int
    cdeg: int
    character: Row
    matrices: dict[int, Matrix]
    csub: Subgroup | None = None
    ctab: CharacterTable | None = None
    cpos: dict[int, int] | None = None

    def label(self) -> str:
        return f"V{self.class_index}.{self.rep_index}"

    def act(self, row: Row) -> list[list[CycloNumber]]:
        d = self.dim
        out = [[ZERO] * d for _ in range(d)]
        for k, c in row.items():
            m = self.matrices.get(k)
            if m is None:
                continue
            for r in range(d):
                mr = m[r]
                orow = out[r]
                for s in range(d):
                    if mr[s]:
                        orow[s] = orow[s] + c * mr[s]
        return out

    def cent_char_value(self, h: int) -> CycloNumber:
        return self.ctab.value_at(self.rep_index, self.cpos[h])

    def __repr__(self) -> str:
        return f"Simple({self.label()}, dim={self.dim})"


def _zero_matrix(m: Matrix | None) -> bool:
    return m is None or all(not v for row in m for v in row)


def _identity(d: int) -> Matrix:
    return tuple(tuple(ONE if r == c else ZERO for c in range(d))
                 for r in range(d))


def _verify_module(A: QTAlgebra, s: SimpleObject) -> None:
    """rho(1) is the identity and rho(x y) = rho(x) rho(y) for every
    algebra generator x (`generators`) and every basis element y.

    Lemma: the x for which this holds for every y are closed under
    products, rho((ab)y) = rho(a(by)) = rho(a) rho(b) rho(y) = rho(ab)
    rho(y), by the associativity verify_axioms proved; every basis
    element is a product of generators (its reach check), so rho is
    multiplicative on all basis pairs, and with the unit check an algebra
    map.
    """
    if tuple(tuple(r) for r in s.act(A.unit_row)) != _identity(s.dim):
        fail(A, "module unit", None, f"V{s.index}")
    mats = s.matrices
    for k in generators(A):
        mk = mats.get(k)
        row = A.prod_idx[k]
        for l in range(A.dim):
            ml = mats.get(l)
            t = row[l]
            mt = mats.get(t) if t >= 0 else None
            if mk is None or ml is None:
                ok = _zero_matrix(mt)
            else:
                prod = mat_mul(mk, ml)
                ok = _zero_matrix(prod) if mt is None else prod == mt
            if not ok:
                fail(A, "module multiplicativity", k, f"V{s.index}")


def _induced_simples(A: QTAlgebra, ci: int, a: int,
                     start: int) -> list[SimpleObject]:
    G = A.group
    C = centralizer_subgroup(G, a)
    CG, pos = C.as_group(f"cent{ci}of{G.name}")
    ctab = character_table(CG)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    class_elt: list[int] = []
    for g in range(G.n):
        x = G.conj(g, a)
        if x not in coset_of:
            coset_of[x] = len(reps)
            reps.append(g)
            class_elt.append(x)
    nc = len(reps)
    # translation data: g reps[i] = reps[j] c with c in the centralizer
    trans = []
    for g in range(G.n):
        per_i = []
        for r in reps:
            t = G.mul(g, r)
            j = coset_of[G.conj(t, a)]
            per_i.append((j, pos[G.mul(G.inv[reps[j]], t)]))
        trans.append(per_i)

    out: list[SimpleObject] = []
    for ri in range(len(ctab.rows)):
        mats = matrix_irrep(CG, ctab, ri)
        dc = ctab.degrees[ri]
        d = nc * dc
        matrices: dict[int, list[list[CycloNumber]]] = {}
        for g in range(G.n):
            for i in range(nc):
                j, cpos_idx = trans[g][i]
                rho = mats[cpos_idx]
                k = A.pair_index(class_elt[j], g)
                M = matrices.get(k)
                if M is None:
                    M = [[ZERO] * d for _ in range(d)]
                    matrices[k] = M
                for p in range(dc):
                    for q in range(dc):
                        v = rho[p][q]
                        if v:
                            M[j * dc + p][i * dc + q] = v
        frozen = {k: tuple(tuple(r) for r in M) for k, M in matrices.items()}
        char: Row = {}
        for k, M in frozen.items():
            tr = ZERO
            for r in range(d):
                tr = tr + M[r][r]
            if tr:
                char[k] = tr
        s = SimpleObject(A, start + ri, ci, ri, a, d, dc, char, frozen,
                         C, ctab, pos)
        _verify_module(A, s)
        _frobenius_check(A, s, reps, ctab, pos)
        out.append(s)
    return out


def _frobenius_check(A: QTAlgebra, s: SimpleObject, reps: list[int],
                     ctab: CharacterTable, pos: dict[int, int]) -> None:
    """Restriction to the group part must be the induced character."""
    G = A.group
    members = set(s.csub.members)
    corder = CycloNumber.rational(Fraction(1, len(members)))
    for g in range(G.n):
        lhs = ZERO
        for x in range(G.n):
            v = s.character.get(A.pair_index(x, g))
            if v:
                lhs = lhs + v
        rhs = ZERO
        for t in range(G.n):
            y = G.conj(G.inv[t], g)
            if y in members:
                rhs = rhs + ctab.value_at(s.rep_index, pos[y])
        if lhs != corder * rhs:
            fail(A, "induced character", None, f"V{s.index} at g{g}")


@memoized
def simple_objects(A: QTAlgebra) -> list[SimpleObject]:
    """The simple modules in a fixed canonical order."""
    G = A.group
    simples: list[SimpleObject] = []
    if A.kind == "double":
        for ci, cls in enumerate(G.conjugacy_classes()):
            simples.extend(_induced_simples(A, ci, cls.representative,
                                            len(simples)))
    else:  # "group", the only other kind
        tab = character_table(G)
        for ri in range(len(tab.rows)):
            mats = matrix_irrep(G, tab, ri)
            d = tab.degrees[ri]
            matrices = {g: mats[g] for g in range(G.n)}
            char = {g: tab.value_at(ri, g) for g in range(G.n)
                    if tab.value_at(ri, g)}
            s = SimpleObject(A, ri, -1, ri, -1, d, d, char, matrices)
            _verify_module(A, s)
            simples.append(s)
    if sum(s.dim * s.dim for s in simples) != A.dim:
        fail(A, "sum of squared dimensions", None, f"{len(simples)} simples")
    # f(Lambda_1) g(Lambda_2) = f(g -> Lambda), one harpoon per simple
    lam, _ = integrals(A)
    ws = [harpoon_right(A, s.character, lam) for s in simples]
    for i, si in enumerate(simples):
        dchar = dual_character(A, si.character)
        for j, w in enumerate(ws):
            want = ONE if i == j else ZERO
            if pair_eval(dchar, w) != want:
                fail(A, "character orthonormality", None, f"V{i} against V{j}")
    return simples


@memoized
def dual_index(A: QTAlgebra) -> list[int]:
    """i -> index of the dual simple."""
    simples = simple_objects(A)
    out: list[int] = []
    for i, s in enumerate(simples):
        d = dual_character(A, s.character)
        matches = [j for j, t in enumerate(simples) if t.character == d]
        if len(matches) != 1:
            fail(A, "dual uniqueness", None, f"V{i}")
        out.append(matches[0])
    return out


# --- fusion multiplicities -----------------------------------------------


@memoized
def fusion_table(A: QTAlgebra) -> list[list[list[int]]]:
    """N[i][j][k], the multiplicity of the k-th simple in V_i x V_j.

    N[i][j][k] = <chi_i * chi_j, w_k> with w_k = chi_k* -> Lambda.  The
    pairing is a sum over the basis elements in both supports, so it is
    zero where the support of chi_i * chi_j misses that of w_k: only the
    k whose w_k meets the convolution are paired, every other entry is
    an exact 0 (and 0 passes every check below).

    Only the pairs i <= j are computed; row (j, i) is a copy of row
    (i, j).  Lemma: the character ring of a quasitriangular algebra is
    commutative.  chi_i * chi_j is the character of V_i x V_j, and the
    braiding tau o R is a module isomorphism V_i x V_j -> V_j x V_i, so
    chi_i * chi_j = chi_j * chi_i; verify_axioms checked R at build
    time.  The duality check still reads both orders.
    """
    simples = simple_objects(A)
    dual = dual_index(A)
    lam, _ = integrals(A)
    ws = [harpoon_right(A, dual_character(A, s.character), lam)
          for s in simples]
    meets: list[list[int]] = [[] for _ in range(A.dim)]
    for k, w in enumerate(ws):
        for b in w:
            meets[b].append(k)
    r = len(simples)
    table: list[list[list[int]]] = [[[] for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            conv = convolve(A, simples[i].character, simples[j].character)
            row = [0] * r
            for k in sorted({k for b in conv for k in meets[b]}):
                v = pair_eval(conv, ws[k])
                q = v.rational_value() if v.is_rational() else None
                if q is None or q.denominator != 1 or q < 0:
                    fail(A, "fusion integrality", None,
                         f"V{i} x V{j} -> V{k} (N = {fmt_cyclo(v)})")
                row[k] = int(q)
            for a, b in ((i, j), (j, i)):
                if row[0] != (1 if dual[a] == b else 0):
                    fail(A, "fusion duality", None, f"V{a} x V{b}")
            if (sum(n * simples[k].dim for k, n in enumerate(row))
                    != simples[i].dim * simples[j].dim):
                fail(A, "fusion dimension count", None, f"V{i} x V{j}")
            table[i][j] = row
            table[j][i] = list(row)
    return table


# --- S-matrix -------------------------------------------------------------


@dataclass
class SMatrix:
    simples: list[SimpleObject]
    entries: list[list[CycloNumber]]
    dual: list[int]
    rank: int
    phi_relation: str


def _kron(a: Matrix, b: Matrix) -> list[list[CycloNumber]]:
    da, db = len(a), len(b)
    out = [[ZERO] * (da * db) for _ in range(da * db)]
    for i in range(da):
        for j in range(da):
            v = a[i][j]
            if not v:
                continue
            for p in range(db):
                for q in range(db):
                    w = b[p][q]
                    if w:
                        out[i * db + p][j * db + q] = v * w
    return out


@memoized
def smatrix(A: QTAlgebra) -> SMatrix:
    """s_ij = (chi_i x chi_j)(Q), cross-checked against a trace over the
    tensor product module and against the Drinfeld-map form."""
    simples = simple_objects(A)
    dual = dual_index(A)
    dm = drinfeld_map(A)
    r = len(simples)
    entries = [[ZERO] * r for _ in range(r)]
    for (a, b), c in dm.q_terms.items():
        for i in range(r):
            fi = simples[i].character.get(a)
            if not fi:
                continue
            for j in range(r):
                gj = simples[j].character.get(b)
                if gj:
                    entries[i][j] = entries[i][j] + c * fi * gj

    for i in range(r):
        for j in range(r):
            di, dj = simples[i].dim, simples[j].dim
            acc = [[ZERO] * (di * dj) for _ in range(di * dj)]
            for (a, b), c in dm.q_terms.items():
                ma = simples[i].matrices.get(a)
                if ma is None:
                    continue
                mb = simples[j].matrices.get(b)
                if mb is None:
                    continue
                kr = _kron(ma, mb)
                for rr in range(di * dj):
                    arow = acc[rr]
                    krow = kr[rr]
                    for cc in range(di * dj):
                        if krow[cc]:
                            arow[cc] = arow[cc] + c * krow[cc]
            tr = ZERO
            for rr in range(di * dj):
                tr = tr + acc[rr][rr]
            if tr != entries[i][j]:
                fail(A, "S-matrix character/trace agreement", None,
                     f"s[{i}][{j}]")

    images = [dm.phi(dual_character(A, s.character)) for s in simples]
    phi_entries = [[pair_eval(simples[i].character, images[j])
                    for j in range(r)] for i in range(r)]
    if all(phi_entries[i][j] == entries[i][j]
           for i in range(r) for j in range(r)):
        phi_relation = "plain"
    elif all(phi_entries[i][j] == entries[i][dual[j]]
             for i in range(r) for j in range(r)):
        phi_relation = "dual-flip"
    else:
        fail(A, "S-matrix Drinfeld-map form (plain or dual-flip convention)")

    for j in range(r):
        if entries[0][j] != CycloNumber.rational(simples[j].dim):
            fail(A, "S-matrix first row (dimensions)", None, f"s[0][{j}]")
    for i in range(r):
        for j in range(r):
            if entries[i][j] != entries[j][i]:
                fail(A, "S-matrix symmetry", None, f"s[{i}][{j}]")
            z = entries[i][j].to_complex()
            if abs(z) > simples[i].dim * simples[j].dim + S_BOUND_TOL:
                fail(A, "S-matrix dimension bound", None, f"s[{i}][{j}]")

    rank = row_rank([{k: v for k, v in enumerate(row) if v}
                     for row in entries], r)
    return SMatrix(simples, entries, dual, rank, phi_relation)


# --- subcategories --------------------------------------------------------


@dataclass
class FusionSubcat:
    """A fusion-closed set of simples, with the name given by the catalog
    that built it, if any, and the coideal L it is Rep(A//L) of."""

    algebra: QTAlgebra
    indices: tuple[int, ...]
    fpdim: int
    name: str | None = None
    coideal: CoidealSubalgebra | None = None

    def label(self) -> str:
        return self.name or f"D{list(self.indices)}"

    def __repr__(self) -> str:
        return f"Subcat({self.label()}, fpdim={self.fpdim})"


def _is_closed(A: QTAlgebra, idx: frozenset[int]) -> bool:
    if 0 not in idx:
        return False
    supp = _fusion_supports(A)
    dual = dual_index(A)
    for i in idx:
        if dual[i] not in idx:
            return False
        row = supp[i]
        for j in idx:
            for k in row[j]:
                if k not in idx:
                    return False
    return True


@memoized
def _fusion_supports(A: QTAlgebra) -> list[list[tuple[int, ...]]]:
    """supp[i][j], the ascending k with N_ij^k != 0."""
    return [[tuple(k for k, n in enumerate(row) if n) for row in row_i]
            for row_i in fusion_table(A)]


def _closure(supp: list[list[tuple[int, ...]]], dual: list[int],
             seed: frozenset[int],
             closed: frozenset[int] = frozenset()) -> frozenset[int]:
    """The least set that contains seed | closed | {0} and is closed under
    duals and fusion, as a worklist over the fusion supports; closed must
    already be closed (or empty).

    Lemma: the members of closed start out processed, and each x popped
    is marked processed and adds dual[x] and the supports of x x y and
    y x for every processed y (x included).  So every pair of processed
    elements has been read once, or lies in closed, whose pairs' supports
    and duals stay in closed.  When the worklist is empty every member is
    processed, hence the set is closed; and each element added lies in
    any closed set containing seed, closed and 0, by induction on the
    order of addition.
    """
    s = set(seed) | closed
    s.add(0)
    todo = sorted(s - closed)
    done = list(closed)
    while todo:
        x = todo.pop()
        done.append(x)
        row = supp[x]
        reach = [dual[x]]
        for y in done:
            reach += row[y]
            reach += supp[y][x]
        for k in reach:
            if k not in s:
                s.add(k)
                todo.append(k)
    return frozenset(s)


def _mk_subcat(A: QTAlgebra, indices, name=None,
               coideal=None) -> FusionSubcat:
    idx = tuple(sorted(indices))
    simples = simple_objects(A)
    if not _is_closed(A, frozenset(idx)):
        fail(A, "fusion closure", None, f"simple set {list(idx)}")
    fp = sum(simples[i].dim ** 2 for i in idx)
    return FusionSubcat(A, idx, fp, name, coideal)


def subcat_from_triple(A: QTAlgebra, M: Subgroup, H: Subgroup,
                       bc: Bicharacter) -> FusionSubcat:
    """S(M, H, lambda): simples (a, chi) with a in M and chi restricting
    to lambda(a, .) on H.  The paired coideal is C(M, H, lambda^{-1})."""
    if A.kind != "double":
        raise PreconditionViolated("triples parameterize double subcategories")
    # built first: building it checks the triple
    L = triple_coideal(A, M, H, bc.inverse())
    simples = simple_objects(A)
    mset = set(M.members)
    sel = []
    for s in simples:
        if s.a not in mset:
            continue
        scale = CycloNumber.rational(s.cdeg)
        if all(s.cent_char_value(h) == bc.value(s.a, h) * scale
               for h in H.members):
            sel.append(s.index)
    name = (f"S(M={list(M.members)},H={list(H.members)},"
            f"{bichar_label(A.group, M, H, bc)})")
    sub = _mk_subcat(A, sel, name, L)
    want = len(M.members) * (A.group.n // len(H.members))
    if sub.fpdim != want:
        fail(A, "subcategory dimension", None, name)
    quot = quotient_irreps(A, L)
    if quot.indices != sub.indices:
        fail(A, f"quotient = {name}", None, L.label())
    return sub


def quotient_irreps(A: QTAlgebra, L: CoidealSubalgebra) -> FusionSubcat:
    """Simples on which the coideal integral acts as the identity."""
    simples = simple_objects(A)
    sel = []
    for s in simples:
        v = pair_eval(s.character, L.integral)
        if not v.is_rational():
            fail(A, "rational integral trace", None,
                 f"V{s.index} by {L.label()}")
        q = v.rational_value()
        if not (q.denominator == 1 and 0 <= q <= s.dim):
            fail(A, "invariant count", None, f"V{s.index} by {L.label()}")
        if q == s.dim:
            sel.append(s.index)
    sub = _mk_subcat(A, sel, coideal=L)
    if not (A.dim % L.dim == 0 and sub.fpdim == A.dim // L.dim):
        fail(A, "quotient dimension", None, L.label())
    return sub


def quotient_integral(A: QTAlgebra, L: CoidealSubalgebra) -> Row:
    """The idempotent integral of (A//L)* inside A*.

    This is the normalized regular character of the quotient, pulled
    back to A: (dim L / dim A) sum of d_i chi_i over Irr(A//L).
    """
    simples = simple_objects(A)
    scale = CycloNumber.rational(Fraction(L.dim, A.dim))
    lam: Row = {}
    for i in quotient_irreps(A, L).indices:
        c = scale * CycloNumber.rational(simples[i].dim)
        for k, v in simples[i].character.items():
            acc(lam, k, c * v)
    if pair_eval(lam, A.unit_row) != ONE:
        fail(A, "quotient integral normalization", None, L.label())
    dual = quotient_dual(A, L)
    if not dual.contains(lam):
        fail(A, "quotient integral membership in (A//L)*", None, L.label())
    for f in dual.rows:
        f1 = pair_eval(f, A.unit_row)
        want = row_scale(lam, f1) if f1 else {}
        if convolve(A, f, lam) != want or convolve(A, lam, f) != want:
            fail(A, "quotient integral two-sidedness", None, L.label())
    return lam


@memoized
def enumerate_subcats(A: QTAlgebra) -> list[FusionSubcat]:
    """All fusion subcategories, via the parameterized description,
    cross-checked against brute-force closure enumeration."""
    found: dict[tuple[int, ...], FusionSubcat] = {}
    if A.kind == "double":
        for M, H, bc in coideal_triples(A.group):
            sub = subcat_from_triple(A, M, H, bc)
            found.setdefault(sub.indices, sub)
    else:  # "group", the only other kind
        for N in normal_subgroups(A.group):
            sub = replace(quotient_irreps(A, group_coideal(A, N)),
                          name=f"Rep(G/N={list(N.members)})")
            found.setdefault(sub.indices, sub)

    r = len(simple_objects(A))
    supp = _fusion_supports(A)
    dual = dual_index(A)
    family = {_closure(supp, dual, frozenset())}
    singles = [_closure(supp, dual, frozenset([i])) for i in range(r)]
    family.update(singles)
    frontier = set(family)
    while frontier:
        fresh = set()
        for s in frontier:
            for t in singles:
                u = _closure(supp, dual, t, s)
                if u not in family:
                    fresh.add(u)
        family.update(fresh)
        frontier = fresh
    brute = {tuple(sorted(s)) for s in family}
    if brute != set(found):
        fail(A, "agreement of the parameterized and brute-force subcategory "
             "enumerations", None, f"{sorted(brute)} vs {sorted(found)}")

    return sorted(found.values(), key=lambda d: (d.fpdim, d.indices))


# --- centralizers ---------------------------------------------------------


def _catalog_lookup(A: QTAlgebra, indices: tuple[int, ...]) -> FusionSubcat:
    for sub in enumerate_subcats(A):
        if sub.indices == indices:
            return sub
    fail(A, "catalog membership", None, f"simple set {list(indices)}")


def centralizer(A: QTAlgebra, D: FusionSubcat, method: str) -> FusionSubcat:
    """The centralizing subcategory, by one of three routes.

    smatrix  s_ij = d_i d_j against every j in D; always applicable.
    phi      image of (A//L)* under the Drinfeld map; needs the coideal.
    classes  class sums / dual idempotents; needs factorizability.
    """
    simples = simple_objects(A)
    if method == "smatrix":
        sm = smatrix(A)
        sel = []
        for i in range(len(simples)):
            di = simples[i].dim
            if all(sm.entries[i][j] ==
                   CycloNumber.rational(di * simples[j].dim)
                   for j in D.indices):
                sel.append(i)
        return _catalog_lookup(A, tuple(sorted(sel)))
    if method == "phi":
        L = D.coideal
        if L is None:
            raise MethodPreconditionViolated(
                "phi method needs the defining coideal of the subcategory")
        Lstar = dual_coideal(A, L)
        return _catalog_lookup(A, quotient_irreps(A, Lstar).indices)
    if method == "classes":
        L = D.coideal
        if L is None:
            raise MethodPreconditionViolated(
                "classes method needs the defining coideal of the subcategory")
        dm = drinfeld_map(A)
        if not dm.is_factorizable:
            raise MethodPreconditionViolated(
                "classes method is only valid in the factorizable case")
        ring = char_ring(A)
        classes = all_classes(A, ring)
        sel = []
        for i in range(len(simples)):
            j = ring.j_of[i]
            if classes[j].space <= L.space:
                sel.append(i)
        sel2 = [i for i in range(len(simples))
                if pair_eval(ring.idempotents[ring.j_of[i]], L.integral)]
        if sel != sel2:
            fail(A, "agreement of class membership and idempotent evaluation",
                 None, L.label())
        return _catalog_lookup(A, tuple(sorted(sel)))
    raise PreconditionViolated(f"unknown centralizer method {method!r}")


@memoized
def char_ring(A: QTAlgebra):
    return char_ring_idempotents(A, [s.character for s in simple_objects(A)])


def left_kernel(A: QTAlgebra, s: SimpleObject) -> Echelon:
    """Largest left coideal acting trivially on the first tensor leg:
    elements a with a_1 (x) a_2 v = a (x) v."""
    rho: list[Row] = [{} for _ in range(A.dim)]
    for k, m in s.matrices.items():
        rho[k] = {(p, q): v for p, row in enumerate(m)
                  for q, v in enumerate(row) if v}
    return coinvariants(A, rho, {(p, p): ONE for p in range(s.dim)})


def generated_subcategory(A: QTAlgebra, indices) -> FusionSubcat:
    """Smallest subcategory containing the given simples, computed from
    the left kernel of their direct sum and cross-checked by closure."""
    simples = simple_objects(A)
    space: Echelon | None = None
    for i in indices:
        ker = left_kernel(A, simples[i])
        space = ker if space is None else intersect(space, ker)
    if space is None:
        space = Echelon(A.dim, [A.basis(k) for k in range(A.dim)])
    L = coideal_from_space(A, space)
    sub = quotient_irreps(A, L)
    want = tuple(sorted(_closure(_fusion_supports(A), dual_index(A),
                                 frozenset(indices))))
    if sub.indices != want:
        fail(A, "agreement of the kernel route and the fusion closure", None,
             f"the subcategory generated by {list(indices)}")
    return sub
