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

from dataclasses import dataclass
from fractions import Fraction

from .chartab import CharacterTable, character_table
from .coideal import (Bicharacter, CoidealSubalgebra, bichar_label,
                      coideal_from_space, coideal_triples, dual_coideal,
                      group_coideal, quotient_dual, triple_coideal)
from .cyclo import CycloNumber, ONE, ZERO
from .errors import (InternalMismatch, InvariantViolation,
                     MethodPreconditionViolated, NonIntegerMultiplicity,
                     NotClosed, OracleMismatch, PreconditionViolated, require)
from .groups import Subgroup, centralizer_subgroup, normal_subgroups
from .hopf import (QTAlgebra, Subspace, all_classes, char_ring_idempotents,
                   convolve, drinfeld_map, dual_character, harpoon_right,
                   integrals, memoized, pair_eval)
from .linalg import Echelon, Row, acc, intersect, nullspace, row_scale
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
    d = s.dim
    ident = _identity(d)
    acted = s.act(A.unit_row)
    require(tuple(tuple(r) for r in acted) == ident, "unit does not act as identity")
    for k in range(A.dim):
        mk = s.matrices.get(k)
        for l in range(A.dim):
            ml = s.matrices.get(l)
            t = A.prod_idx[k][l]
            mt = s.matrices.get(t) if t >= 0 else None
            if mk is None or ml is None:
                require(_zero_matrix(mt), "module action is not multiplicative")
            else:
                prod = mat_mul(mk, ml)
                if mt is None:
                    require(_zero_matrix(prod), "module action is not multiplicative")
                else:
                    require(prod == mt, "module action is not multiplicative")


def _induced_simples(A: QTAlgebra, ci: int, a: int,
                     start: int) -> list[SimpleObject]:
    G = A.group
    C = centralizer_subgroup(G, a)
    CG, pos = C.as_group(f"cent{ci}")
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
        require(lhs == corder * rhs, "induced character mismatch")


@memoized
def simple_objects(A: QTAlgebra) -> list[SimpleObject]:
    """The simple modules in a fixed canonical order."""
    G = A.group
    simples: list[SimpleObject] = []
    if A.kind == "double":
        for ci, cls in enumerate(G.conjugacy_classes()):
            simples.extend(_induced_simples(A, ci, cls.representative,
                                            len(simples)))
    elif A.kind == "group":
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
    else:
        raise PreconditionViolated("no simple module catalog for this kind")
    require(sum(s.dim * s.dim for s in simples) == A.dim,
            "squared dimensions of the simples do not sum to dim A")
    # f(Lambda_1) g(Lambda_2) = f(g -> Lambda), one harpoon per simple
    lam, _ = integrals(A)
    ws = [harpoon_right(A, s.character, lam) for s in simples]
    for i, si in enumerate(simples):
        dchar = dual_character(A, si.character)
        for j, w in enumerate(ws):
            want = ONE if i == j else ZERO
            require(pair_eval(dchar, w) == want,
                    "simple characters are not orthonormal")
    return simples


def double_irreps(A: QTAlgebra) -> list[SimpleObject]:
    if A.kind != "double":
        raise PreconditionViolated("not a double")
    return simple_objects(A)


@memoized
def dual_index(A: QTAlgebra) -> list[int]:
    """i -> index of the dual simple."""
    simples = simple_objects(A)
    out: list[int] = []
    for s in simples:
        d = dual_character(A, s.character)
        matches = [j for j, t in enumerate(simples) if t.character == d]
        require(len(matches) == 1, "dual character matches no unique simple")
        out.append(matches[0])
    return out


# --- fusion multiplicities -----------------------------------------------


@memoized
def fusion_table(A: QTAlgebra) -> list[list[list[int]]]:
    """N[i][j][k], the multiplicity of the k-th simple in V_i x V_j."""
    simples = simple_objects(A)
    dual = dual_index(A)
    lam, _ = integrals(A)
    ws = [harpoon_right(A, dual_character(A, s.character), lam)
          for s in simples]
    r = len(simples)
    table: list[list[list[int]]] = []
    for i in range(r):
        row_i = []
        for j in range(r):
            conv = convolve(A, simples[i].character, simples[j].character)
            row_j = []
            for k in range(r):
                v = pair_eval(conv, ws[k])
                if not v.is_rational():
                    raise NonIntegerMultiplicity(f"N[{i}][{j}][{k}] = {v}")
                q = v.rational_value()
                if q.denominator != 1 or q < 0:
                    raise NonIntegerMultiplicity(f"N[{i}][{j}][{k}] = {q}")
                row_j.append(int(q))
            require(row_j[0] == (1 if dual[i] == j else 0),
                    "multiplicity of the unit violates duality")
            require(sum(n * simples[k].dim for k, n in enumerate(row_j))
                    == simples[i].dim * simples[j].dim,
                    "fusion multiplicities do not account for the dimension")
            row_i.append(row_j)
        table.append(row_i)
    return table


def fusion_coefficients(A: QTAlgebra, i: int, j: int) -> list[int]:
    return list(fusion_table(A)[i][j])


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
                raise InternalMismatch(
                    f"s[{i}][{j}]: character and trace routes disagree")

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
        raise InternalMismatch("Drinfeld-map form of the S-matrix matches "
                               "neither index convention")

    for j in range(r):
        require(entries[0][j] == CycloNumber.rational(simples[j].dim),
                "first S-matrix row is not the dimension vector")
    for i in range(r):
        for j in range(r):
            require(entries[i][j] == entries[j][i], "S-matrix is not symmetric")
            z = entries[i][j].to_complex()
            bound = simples[i].dim * simples[j].dim
            require(abs(z) <= bound + S_BOUND_TOL,
                    "S-matrix entry exceeds the dimension bound")

    ech = Echelon(r)
    for row in entries:
        ech.insert({k: v for k, v in enumerate(row) if v})
    return SMatrix(simples, entries, dual, ech.rank, phi_relation)


# --- subcategories --------------------------------------------------------


@dataclass
class FusionSubcat:
    algebra: QTAlgebra
    indices: tuple[int, ...]
    fpdim: int
    mspec: tuple[int, ...] | None = None
    hspec: tuple[int, ...] | None = None
    bichar: Bicharacter | None = None
    coideal: CoidealSubalgebra | None = None

    def label(self) -> str:
        if self.mspec is not None and self.hspec is not None:
            lam = bichar_label(self.algebra, self.mspec, self.hspec,
                               self.bichar)
            return f"S(M={list(self.mspec)},H={list(self.hspec)},{lam})"
        if self.mspec is not None:
            return f"Rep(G/N={list(self.mspec)})"
        return f"D{list(self.indices)}"

    def __repr__(self) -> str:
        return f"Subcat({self.label()}, fpdim={self.fpdim})"


def _is_closed(A: QTAlgebra, idx: frozenset[int]) -> bool:
    if 0 not in idx:
        return False
    table = fusion_table(A)
    dual = dual_index(A)
    for i in idx:
        if dual[i] not in idx:
            return False
        for j in idx:
            for k, nk in enumerate(table[i][j]):
                if nk and k not in idx:
                    return False
    return True


def _closure(A: QTAlgebra, seed: frozenset[int]) -> frozenset[int]:
    table = fusion_table(A)
    dual = dual_index(A)
    s = set(seed)
    s.add(0)
    changed = True
    while changed:
        changed = False
        for i in list(s):
            if dual[i] not in s:
                s.add(dual[i])
                changed = True
        for i in list(s):
            for j in list(s):
                for k, nk in enumerate(table[i][j]):
                    if nk and k not in s:
                        s.add(k)
                        changed = True
    return frozenset(s)


def _mk_subcat(A: QTAlgebra, indices, mspec=None, hspec=None, bichar=None,
               coideal=None) -> FusionSubcat:
    idx = tuple(sorted(indices))
    simples = simple_objects(A)
    if not _is_closed(A, frozenset(idx)):
        raise NotClosed(f"simple set {list(idx)} is not fusion closed")
    fp = sum(simples[i].dim ** 2 for i in idx)
    return FusionSubcat(A, idx, fp, mspec, hspec, bichar, coideal)


def subcat_from_triple(A: QTAlgebra, M: Subgroup, H: Subgroup,
                       bc: Bicharacter) -> FusionSubcat:
    """S(M, H, lambda): simples (a, chi) with a in M and chi restricting
    to lambda(a, .) on H.  The paired coideal is C(M, H, lambda^{-1})."""
    if A.kind != "double":
        raise PreconditionViolated("triples parameterize double subcategories")
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
    sub = _mk_subcat(A, sel, M.members, H.members, bc)
    want = len(M.members) * (A.group.n // len(H.members))
    require(sub.fpdim == want, "S(M,H,lambda) has the wrong dimension")
    L = triple_coideal(A, M, H, bc.inverse())
    quot = quotient_irreps(A, L)
    if quot.indices != sub.indices:
        raise InternalMismatch("quotient by C(M,H,1/lambda) is not "
                               "S(M,H,lambda)")
    sub.coideal = L
    return sub


def quotient_irreps(A: QTAlgebra, L: CoidealSubalgebra) -> FusionSubcat:
    """Simples on which the coideal integral acts as the identity."""
    simples = simple_objects(A)
    sel = []
    for s in simples:
        v = pair_eval(s.character, L.integral)
        if not v.is_rational():
            raise InvariantViolation("integral has irrational trace")
        q = v.rational_value()
        require(q.denominator == 1 and 0 <= q <= s.dim,
                "invariant count out of range")
        if q == s.dim:
            sel.append(s.index)
    sub = _mk_subcat(A, sel, coideal=L)
    require(A.dim % L.dim == 0 and sub.fpdim == A.dim // L.dim,
            "quotient category has the wrong dimension")
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
        raise InvariantViolation("quotient integral is not normalized")
    dual = quotient_dual(A, L)
    if not dual.contains(lam):
        raise InvariantViolation("quotient integral escapes (A//L)*")
    for f in dual.rows:
        f1 = pair_eval(f, A.unit_row)
        want = row_scale(lam, f1) if f1 else {}
        if convolve(A, f, lam) != want or convolve(A, lam, f) != want:
            raise InvariantViolation("quotient integral is not an integral")
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
    elif A.kind == "group":
        for N in normal_subgroups(A.group):
            L = group_coideal(A, N)
            sub = quotient_irreps(A, L)
            sub.mspec = N.members
            found.setdefault(sub.indices, sub)
    else:
        raise PreconditionViolated("no subcategory catalog for this kind")

    r = len(simple_objects(A))
    family = {_closure(A, frozenset())}
    singles = [_closure(A, frozenset([i])) for i in range(r)]
    family.update(singles)
    frontier = set(family)
    while frontier:
        fresh = set()
        for s in frontier:
            for t in singles:
                u = _closure(A, s | t)
                if u not in family:
                    fresh.add(u)
        family.update(fresh)
        frontier = fresh
    brute = {tuple(sorted(s)) for s in family}
    if brute != set(found):
        raise OracleMismatch(
            "parameterized and brute-force subcategory enumerations differ: "
            f"{sorted(brute)} vs {sorted(found)}")

    return sorted(found.values(), key=lambda d: (d.fpdim, d.indices))


# --- centralizers ---------------------------------------------------------


def _catalog_lookup(A: QTAlgebra, indices: tuple[int, ...]) -> FusionSubcat:
    for sub in enumerate_subcats(A):
        if sub.indices == indices:
            return sub
    raise InvariantViolation(
        f"computed simple set {list(indices)} is not a listed subcategory")


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
            if all(L.space.contains(row) for row in classes[j].space.rows):
                sel.append(i)
        sel2 = [i for i in range(len(simples))
                if pair_eval(ring.idempotents[ring.j_of[i]], L.integral)]
        if sel != sel2:
            raise InternalMismatch(
                "class membership and idempotent evaluation disagree")
        return _catalog_lookup(A, tuple(sorted(sel)))
    raise PreconditionViolated(f"unknown centralizer method {method!r}")


@memoized
def char_ring(A: QTAlgebra):
    return char_ring_idempotents(A, [s.character for s in simple_objects(A)])


def left_kernel(A: QTAlgebra, s: SimpleObject) -> Subspace:
    """Largest left coideal acting trivially on the first tensor leg:
    elements a with a_1 (x) a_2 v = a (x) v."""
    d = s.dim
    eqs: dict[tuple[int, int, int], Row] = {}
    for k in range(A.dim):
        for l, rr in A.delta[k]:
            m = s.matrices.get(rr)
            if m is None:
                continue
            for p in range(d):
                for q in range(d):
                    v = m[p][q]
                    if v:
                        acc(eqs.setdefault((l, p, q), {}), k, v)
    for k in range(A.dim):
        for p in range(d):
            acc(eqs.setdefault((k, p, p), {}), k, -ONE)
    return Subspace(nullspace(list(eqs.values()), A.dim), A.dim)


def generated_subcategory(A: QTAlgebra, indices) -> FusionSubcat:
    """Smallest subcategory containing the given simples, computed from
    the left kernel of their direct sum and cross-checked by closure."""
    simples = simple_objects(A)
    space: Subspace | None = None
    for i in indices:
        ker = left_kernel(A, simples[i])
        space = ker if space is None else _meet(A, space, ker)
    if space is None:
        space = Subspace([A.basis(k) for k in range(A.dim)], A.dim)
    L = coideal_from_space(A, space)
    sub = quotient_irreps(A, L)
    want = tuple(sorted(_closure(A, frozenset(indices))))
    if sub.indices != want:
        raise OracleMismatch("kernel route and fusion closure disagree on "
                             "the generated subcategory")
    return sub


def _meet(A: QTAlgebra, x: Subspace, y: Subspace) -> Subspace:
    return Subspace(intersect(x.rows, y.rows, A.dim), A.dim)
