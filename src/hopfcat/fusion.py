"""Simple modules, the S-matrix, and fusion subcategories.

Simple modules of the double of kG are induced from centralizer
subgroups: one module per pair (conjugacy class of a, irreducible
character chi of C_G(a)).  Subcategories come in two independent
descriptions, a parameterized one S(M, H, lambda) and a brute-force
closure enumeration; the two are always cross-checked.  Centralizers
of subcategories can be computed three ways (S-matrix test, image of
the Drinfeld map, class sum membership) which the acceptance suite
requires to agree.

The catalog is read through one table per algebra, subcat_table: the
subcategories in (fpdim, indices) order, keyed by the bitmask of their
simples (subcat_mask).  Lookup by index set, containment and the first
superset are integer operations on its keys.
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
from .groups import (Subgroup, center_subgroup, centralizer_subgroup, memo,
                     memoized, normal_subgroups)
from .hopf import (QTAlgebra, char_ring_idempotents, coinvariants, convolve,
                   delta_of, drinfeld_map, dual_character, generators,
                   harpoon_right, integrals, mul_rows, noncentral_generator,
                   pair_eval, rmul)
from .linalg import (Echelon, Row, acc, intersect, row_keys, row_rank,
                     row_scale)
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

    def label(self) -> str:
        return f"V{self.class_index}.{self.rep_index}"

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
    mats = s.matrices
    unit = [[ZERO] * s.dim for _ in range(s.dim)]
    for k, c in A.unit_row.items():
        for urow, mrow in zip(unit, mats.get(k, ())):
            urow[:] = [u + c * v for u, v in zip(urow, mrow)]
    if tuple(map(tuple, unit)) != _identity(s.dim):
        fail(A, "module unit", None, f"V{s.index}")
    # a product with a zero factor must land on a zero matrix: an index
    # test against the nonzero ones; only products of two nonzero
    # matrices are formed
    nonzero = {k for k, m in mats.items() if not _zero_matrix(m)}
    zeros = [l for l in range(A.dim) if l not in nonzero]
    for k in generators(A):
        row = A.prod_idx[k]
        if k not in nonzero:
            ok = nonzero.isdisjoint(row)
        else:
            mk = mats[k]
            ok = nonzero.isdisjoint(map(row.__getitem__, zeros))
            for l in nonzero:
                if not ok:
                    break
                prod = mat_mul(mk, mats[l])
                mt = mats.get(row[l])
                ok = _zero_matrix(prod) if mt is None else prod == mt
        if not ok:
            fail(A, "module multiplicativity", k, f"V{s.index}")


def _induced_simples(A: QTAlgebra, ci: int, a: int,
                     start: int) -> list[SimpleObject]:
    """The simples induced from the class ci of a and the irreducible
    characters of its centralizer C_G(a).

    The character-table rows of C_G(a) are computed once per Cayley
    table of the centralizer (on D(Z7) all seven are Z7), and each named
    centralizer group still builds and verifies its own CharacterTable
    from them, so a failure names that group.  The rows depend on the
    table only: classes, their order and the canonical row order are
    all read off it.
    """
    G = A.group
    C = centralizer_subgroup(G, a)
    CG, pos = C.as_group(f"cent{ci}of{G.name}")
    rows = memo(A, (_induced_simples, CG.table),
                lambda: character_table(CG).rows)
    ctab = CharacterTable(CG, rows)
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
            tr = sum((M[r][r] for r in range(d)), ZERO)
            if tr:
                char[k] = tr
        s = SimpleObject(A, start + ri, ci, ri, a, d, dc, char, frozen)
        _verify_module(A, s)
        _frobenius_check(A, s, set(C.members), ctab, pos)
        out.append(s)
    return out


def _frobenius_check(A: QTAlgebra, s: SimpleObject, members: set[int],
                     ctab: CharacterTable, pos: dict[int, int]) -> None:
    """Restriction to the group part must be the induced character, for
    the centralizer C_G(s.a) given by its members."""
    G = A.group
    corder = CycloNumber.rational(Fraction(1, len(members)))
    for g in range(G.n):
        lhs = sum((s.character.get(A.pair_index(x, g), ZERO)
                   for x in range(G.n)), ZERO)
        rhs = sum((ctab.value_at(s.rep_index, pos[y]) for t in range(G.n)
                   if (y := G.conj(G.inv[t], g)) in members), ZERO)
        if lhs != corder * rhs:
            fail(A, "induced character", None, f"V{s.index} at g{g}")


@memoized
def simple_objects(A: QTAlgebra) -> list[SimpleObject]:
    """The simple modules in a fixed canonical order.

    Orthonormality of the characters, <chi_i*, chi_j> = delta_ij with
    <f, g> = f(Lambda_1) g(Lambda_2), is checked on the diagonal, then
    the characters are checked pairwise distinct (row_keys).  Lemma:
    chi_i*(Lambda_1) chi_j(Lambda_2) is the trace of Lambda on V_i* x
    V_j, and Lambda (eps(Lambda) = 1) acts there as the projection onto
    the invariants, Hom_A(V_i, V_j); so it is dim Hom_A(V_i, V_j).  A is
    semisimple, so a module with a one-dimensional End is simple, and two
    simples with distinct characters are not isomorphic: Hom = 0 by Schur.
    """
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
    for i, s in enumerate(simples):
        w = harpoon_right(A, s.character, lam)
        if pair_eval(dual_character(A, s.character), w) != ONE:
            fail(A, "character orthonormality", None, f"V{i} against V{i}")
    first: dict[tuple, int] = {}
    for j, key in enumerate(row_keys([s.character for s in simples])):
        i = first.setdefault(key, j)
        if i != j:
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


def _central_charges(A: QTAlgebra, simples: list[SimpleObject]
                     ) -> tuple[list[int], list[list[int | None]]]:
    """The central charges of the simples, as classes: charge[i] is the
    class of the tuple of omega_i(g) over the central group-likes g, and
    product[c][d] the class of the product of classes c and d, or None
    when no simple has it.

    The g are 1 x z (z itself in kG) for z over the generators of Z(G).
    Each g is checked to be central, group-like and to fix Lambda, and
    left multiplication by g to permute the basis (rmul: a relabel).
    Then every simple is checked for chi_i(g e_k) = omega_i(g) chi_i(e_k)
    on every basis element e_k, with omega_i(g) = chi_i(g) / dim V_i,
    which is chi_i(g b) = omega_i(g) chi_i(b) for every b, by linearity.
    omega_i(g) is a root of unity, so nonzero: g^m = 1 for the order m of
    its relabel, and chi_i(1) = omega_i(g)^m chi_i(1).
    """
    G = A.group
    lam, _ = integrals(A)
    vecs: list[list[CycloNumber]] = [[] for _ in simples]
    for z in center_subgroup(G).generators():
        if A.kind == "double":
            g, name = {A.pair_index(x, z): ONE for x in range(G.n)}, f"1 x g{z}"
        else:  # "group", the only other kind
            g, name = {z: ONE}, f"g{z}"
        images = [rmul(A, g, k) for k in range(A.dim)]
        perm = [next(iter(row), -1) for row in images]
        if (any(len(row) != 1 for row in images)
                or len(set(perm)) != A.dim
                or noncentral_generator(A, g) is not None
                or mul_rows(A, g, lam) != lam
                or delta_of(A, g) != {(a, b): ONE for a in g for b in g}):
            fail(A, "central group-like", None, name)
        for i, s in enumerate(simples):
            chi = s.character
            omega = pair_eval(chi, g) / s.dim
            for k, m in enumerate(perm):
                v, w = chi.get(k), chi.get(m)
                if (omega * v != w) if v else (w is not None):
                    fail(A, "central charge", k, f"V{i} by {name}")
            vecs[i].append(omega)
    reps: list[list[CycloNumber]] = []
    charge: list[int] = []
    for vec in vecs:
        c = next((c for c, rep in enumerate(reps) if rep == vec), len(reps))
        if c == len(reps):
            reps.append(vec)
        charge.append(c)
    product = [[next((c for c, rep in enumerate(reps)
                      if rep == [x * y for x, y in zip(u, v)]), None)
                for v in reps] for u in reps]
    return charge, product


@memoized
def fusion_table(A: QTAlgebra) -> list[list[list[int]]]:
    """N[i][j][k], the multiplicity of the k-th simple in V_i x V_j.

    N[i][j][k] = <chi_i * chi_j, w_k> with w_k = chi_k* -> Lambda.  The
    pairing is a sum over the basis elements in both supports, so it is
    zero where the support of chi_i * chi_j misses that of w_k: only the
    k whose w_k meets the convolution are paired, every other entry is
    an exact 0 (and 0 passes every check below).

    Of those k, only the ones whose central charges agree are paired,
    omega_k(g) = omega_i(g) omega_j(g) for every central group-like g of
    _central_charges; the others are exact zeros.  Lemma: g Lambda =
    Lambda, so Delta(Lambda) = (g x g) Delta(Lambda) and N = (chi_i *
    chi_j)(g Lambda_1) chi_k*(g Lambda_2).  With chi_i(g b) = omega_i
    chi_i(b) for every b (checked there) and Delta(g b) = (g x g)
    Delta(b), (chi_i * chi_j)(g b) = omega_i omega_j (chi_i * chi_j)(b);
    and chi_k*(g b) = chi_k(S(b) g^-1) = chi_k(g^-1 S(b)) = chi_k*(b) /
    omega_k, as g is central and S(g) = g^-1.  So (1 - omega_i omega_j /
    omega_k) N = 0.

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
    charge, product = _central_charges(A, simples)
    # meets[c][b]: the k of charge class c whose w_k has b in its support
    meets: list[list[list[int]]] = [[[] for _ in range(A.dim)]
                                    for _ in product]
    for k, w in enumerate(ws):
        for b in w:
            meets[charge[k]][b].append(k)
    r = len(simples)
    table: list[list[list[int]]] = [[[] for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            conv = convolve(A, simples[i].character, simples[j].character)
            row = [0] * r
            c = product[charge[i]][charge[j]]
            paired = ([] if c is None else
                      sorted({k for b in conv for k in meets[c][b]}))
            for k in paired:
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

    # the trace route reads the module matrices, not the characters: the
    # diagonal of sum c (rho_i(a) x rho_j(b)) over the terms of Q, which is
    # all its trace reads (entry (p dj + q) of the diagonal of a Kronecker
    # product is a[p][p] b[q][q])
    diagonals = [{a: [m[p][p] for p in range(s.dim)]
                  for a, m in s.matrices.items()} for s in simples]
    for i in range(r):
        # the terms of Q whose left leg acts on V_i, in the order of Q
        terms = [(b, c, xa) for (a, b), c in dm.q_terms.items()
                 if (xa := diagonals[i].get(a)) is not None]
        for j in range(r):
            dj = simples[j].dim
            diag = [ZERO] * (simples[i].dim * dj)
            for b, c, xa in terms:
                yb = diagonals[j].get(b)
                if yb is None:
                    continue
                for p, x in enumerate(xa):
                    if not x:
                        continue
                    for q, y in enumerate(yb):
                        if y:
                            diag[p * dj + q] = diag[p * dj + q] + c * (x * y)
            if sum(diag, ZERO) != entries[i][j]:
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
    to lambda(a, .) on H.  The paired coideal is C(M, H, lambda^{-1}).

    chi(h) is read off the simple's own character: chi_V(p_a x h) = chi(h)
    for h in C_G(a).  Lemma: p_a x h sends the block of each coset
    g C_G(a) to that of h g C_G(a), and is 0 there unless that coset is
    C_G(a), the one block on which p_a is not 0; so its only diagonal
    block is the block of C_G(a), where it acts as h on chi's module,
    with trace chi(h).
    """
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
        if all(s.character.get(A.pair_index(s.a, h), ZERO)
               == bc.value(s.a, h) * scale
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

    # brute force: every join of single-simple closures.  Lemma: a closed
    # set is the join of the closures of its members; join(s, t) = s when
    # t <= s, and equal seeds give equal joins, so joining each set with
    # the distinct single-simple closures not inside it finds every one
    r = len(simple_objects(A))
    supp = _fusion_supports(A)
    dual = dual_index(A)
    singles = {_closure(supp, dual, frozenset([i])) for i in range(r)}
    family = {_closure(supp, dual, frozenset())} | singles
    frontier = set(family)
    while frontier:
        fresh = set()
        for s in frontier:
            for t in singles:
                if t <= s:
                    continue
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


def subcat_mask(indices) -> int:
    """The bitmask of a set of simples: bit i for V_i."""
    return sum(1 << i for i in set(indices))


@memoized
def subcat_table(A: QTAlgebra) -> dict[int, FusionSubcat]:
    """enumerate_subcats(A), in its (fpdim, indices) order, keyed by the
    bitmask of each subcategory's simples.  The first entry whose key
    contains a mask is, as the table is in fpdim order, the first of the
    least-fpdim subcategories containing those simples."""
    return {subcat_mask(D.indices): D for D in enumerate_subcats(A)}


def _catalog_lookup(A: QTAlgebra, indices: tuple[int, ...]) -> FusionSubcat:
    sub = subcat_table(A).get(subcat_mask(indices))
    if sub is None:
        fail(A, "catalog membership", None, f"simple set {list(indices)}")
    return sub


def blocks_inside(A: QTAlgebra, L: CoidealSubalgebra) -> set[int]:
    """The blocks j whose class span C^j lies in L, memoized on L's space,
    the only thing the criterion reads."""
    return memo(A, (blocks_inside, L.key()), lambda: {
        j for j, cls in enumerate(char_ring(A).classes)
        if cls.space <= L.space})


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
        inside = blocks_inside(A, L)
        sel = [i for i in range(len(simples)) if ring.j_of[i] in inside]
        sel2 = [i for i in range(len(simples))
                if pair_eval(ring.idempotents[ring.j_of[i]], L.integral)]
        if sel != sel2:
            fail(A, "agreement of class membership and idempotent evaluation",
                 None, L.label())
        return _catalog_lookup(A, tuple(sorted(sel)))
    raise PreconditionViolated(f"unknown centralizer method {method!r}")


@memoized
def char_ring(A: QTAlgebra):
    """The character ring's idempotents and class spans
    (char_ring_idempotents), built once per algebra."""
    return char_ring_idempotents(A, [s.character for s in simple_objects(A)])


def left_kernel(A: QTAlgebra, i: int) -> Echelon:
    """Largest left coideal acting trivially on the first tensor leg of
    the i-th simple V: elements a with a_1 (x) a_2 v = a (x) v; built
    once per algebra and simple."""
    def build() -> Echelon:
        s = simple_objects(A)[i]
        rho: list[Row] = [{} for _ in range(A.dim)]
        for k, m in s.matrices.items():
            rho[k] = {(p, q): v for p, row in enumerate(m)
                      for q, v in enumerate(row) if v}
        return coinvariants(A, rho, {(p, p): ONE for p in range(s.dim)})
    return memo(A, (left_kernel, i), build)


def generated_subcategory(A: QTAlgebra, indices) -> FusionSubcat:
    """Smallest subcategory containing the given simples, computed from
    the left kernel of their direct sum and cross-checked by closure."""
    space: Echelon | None = None
    for i in indices:
        ker = left_kernel(A, i)
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
