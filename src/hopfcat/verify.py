"""Cross-checks tying coideals, subcategories and the Drinfeld map together.

verify_identities recomputes both sides of a family of structural
identities from scratch and reports one verdict per subject.  Nothing is
repaired on failure: a red entry means two independently computed
structures genuinely disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coideal import (CoidealSubalgebra, augmentation_ideal,
                      coideal_from_space, coideal_intersect, coideal_product,
                      dual_coideal, enumerate_coideals,
                      is_normal_hopf_subalgebra, quotient_dual)
from .cyclo import CycloNumber, ONE
from .errors import InvariantViolation
from .fusion import (centralizer, char_ring, enumerate_subcats, left_kernel,
                     quotient_integral, quotient_irreps, simple_objects,
                     smatrix)
from .hopf import (QTAlgebra, Subspace, all_classes, compute_K_A, convolve,
                   drinfeld_map, integrals, memo, mul_rows, pair_eval,
                   verify_quasitriangular)
from .linalg import (Echelon, Row, acc, intersect, nullspace, row_addmul,
                     row_scale)

# Monodromy fixed-point checks build vectors in A (x) A and are the one
# place where work grows with dim^2 * |Q|; past this bound they are skipped.
MONODROMY_DIM_BOUND = 36


@dataclass
class CheckResult:
    id: str
    subject: str
    passed: bool
    detail: str


class _Context:
    """Everything the individual checks share, computed once."""

    def __init__(self, A: QTAlgebra, seed: int = 0):
        self.A = A
        self.seed = seed
        self.simples = simple_objects(A)
        self.r = len(self.simples)
        self.dims = [s.dim for s in self.simples]
        self.subs = enumerate_subcats(A)
        self.cos = enumerate_coideals(A)
        self.sm = smatrix(A)
        self.dm = drinfeld_map(A)
        self.factorizable = self.dm.is_factorizable
        self.ring = char_ring(A)
        self.classes = all_classes(A, self.ring)
        self.lam, self.t = integrals(A)
        self.KA = compute_K_A(A)
        self.sub_by_idx = {D.indices: D for D in self.subs}
        self.full = self.sub_by_idx[tuple(range(self.r))]
        self.cent = {D.indices: centralizer(A, D, "smatrix")
                     for D in self.subs}
        # indices of Rep(A//L) for every cataloged coideal
        self.idx: dict[tuple, tuple[int, ...]] = {}
        for D in self.subs:
            if D.coideal is not None:
                self.idx[D.coideal.key()] = D.indices
        for L in self.cos:
            if L.key() not in self.idx:
                self.idx[L.key()] = quotient_irreps(A, L).indices
        self.Lstar = {L.key(): dual_coideal(A, L) for L in self.cos}

    def fpdim_of(self, indices) -> int:
        return sum(self.dims[i] ** 2 for i in indices)

    def idx_of(self, L: CoidealSubalgebra) -> tuple[int, ...]:
        return self.idx[L.key()]

    def star(self, L: CoidealSubalgebra) -> CoidealSubalgebra:
        return self.Lstar[L.key()]

    def cent_of(self, L: CoidealSubalgebra):
        return self.cent[self.idx_of(L)]

    def join(self, a, b) -> tuple[int, ...]:
        """Smallest cataloged subcategory containing both index sets."""
        want = set(a) | set(b)
        best = None
        for D in self.subs:
            if want <= set(D.indices):
                if best is None or D.fpdim < best.fpdim:
                    best = D
        return best.indices

    def lker(self, i: int) -> Subspace:
        return memo(self.A, (left_kernel, i),
                    lambda: left_kernel(self.A, self.simples[i]))

    def blocks_in(self, L: CoidealSubalgebra) -> set[int]:
        """Blocks j with C^j contained in L."""
        return memo(self.A, (_Context.blocks_in, L.key()), lambda: {
            j for j, cls in enumerate(self.classes)
            if all(L.space.contains(row) for row in cls.space.rows)})

    def is_normal(self, L: CoidealSubalgebra) -> bool:
        return memo(self.A, (is_normal_hopf_subalgebra, L.key()),
                    lambda: is_normal_hopf_subalgebra(self.A, L))

    def nondegenerate(self, indices) -> bool:
        return set(indices) & set(self.cent[tuple(indices)].indices) == {0}


def _res(cid: str, subject: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(cid, subject, ok, detail)


# --- the individual checks ------------------------------------------------


def _check_drinfeld_laws(ctx: _Context) -> list[CheckResult]:
    try:
        verify_quasitriangular(ctx.A, [s.character for s in ctx.simples],
                               ctx.ring, seed=ctx.seed)
        return [_res("drinfeld-map-laws", ctx.A.name, True,
                     "multiplicativity, centrality and class stability hold")]
    except InvariantViolation as exc:
        return [_res("drinfeld-map-laws", ctx.A.name, False, str(exc))]


def _check_dim_product(ctx: _Context) -> list[CheckResult]:
    """fpdim(D) fpdim(D') = fpdim(C) fpdim(D meet C')."""
    out = []
    total = ctx.full.fpdim
    cprime = ctx.cent[ctx.full.indices]
    for D in ctx.subs:
        dp = ctx.cent[D.indices]
        meet = set(D.indices) & set(cprime.indices)
        lhs = D.fpdim * dp.fpdim
        rhs = total * ctx.fpdim_of(meet)
        out.append(_res("dim-centralizer-product", D.label(), lhs == rhs,
                        f"{D.fpdim}*{dp.fpdim} vs {total}*{ctx.fpdim_of(meet)}"))
    return out


def _check_double_centralizer(ctx: _Context) -> list[CheckResult]:
    """D'' equals the join of D with the centralizer of the whole category."""
    out = []
    cprime = ctx.cent[ctx.full.indices]
    for D in ctx.subs:
        ddp = ctx.cent[ctx.cent[D.indices].indices]
        join = ctx.join(D.indices, cprime.indices)
        out.append(_res("double-centralizer", D.label(),
                        ddp.indices == join,
                        f"fpdim {ddp.fpdim} vs {ctx.fpdim_of(join)}"))
    return out


def _check_centralizer_exchange(ctx: _Context) -> list[CheckResult]:
    """fpdim(B meet D') fpdim(D) = fpdim(B' meet D) fpdim(B), all pairs."""
    out = []
    for B in ctx.subs:
        bset = set(B.indices)
        bp = set(ctx.cent[B.indices].indices)
        bad = None
        for D in ctx.subs:
            dp = set(ctx.cent[D.indices].indices)
            lhs = ctx.fpdim_of(bset & dp) * D.fpdim
            rhs = ctx.fpdim_of(bp & set(D.indices)) * B.fpdim
            if lhs != rhs:
                bad = f"against {D.label()}: {lhs} != {rhs}"
                break
        out.append(_res("centralizer-exchange", B.label(), bad is None,
                        bad or f"{len(ctx.subs)} partners"))
    return out


def _check_lattice_duality(ctx: _Context) -> list[CheckResult]:
    """Products and intersections of coideals against meets and joins of
    their quotient categories, plus the dimension identity."""
    out = []
    A = ctx.A
    for i, L1 in enumerate(ctx.cos):
        bad = None
        for L2 in ctx.cos[i:]:
            P = coideal_product(A, L1, L2)
            I = coideal_intersect(A, L1, L2)
            if set(ctx.idx_of(P)) != set(ctx.idx_of(L1)) & set(ctx.idx_of(L2)):
                bad = f"product vs meet fails against {L2.label()}"
                break
            if ctx.idx_of(I) != ctx.join(ctx.idx_of(L1), ctx.idx_of(L2)):
                bad = f"intersection vs join fails against {L2.label()}"
                break
            if P.dim * I.dim != L1.dim * L2.dim:
                bad = (f"dim {P.dim}*{I.dim} != {L1.dim}*{L2.dim} "
                       f"against {L2.label()}")
                break
        out.append(_res("lattice-duality", L1.label(), bad is None,
                        bad or f"{len(ctx.cos) - i} partners"))
    return out


def _check_kernel_image(ctx: _Context) -> list[CheckResult]:
    """L** = L meet K_A inside L K_A, and K_A is a sum of blocks."""
    out = []
    A = ctx.A
    KA = coideal_from_space(A, ctx.KA)
    blocks = ctx.blocks_in(KA)
    span = Echelon(A.dim)
    for j in blocks:
        for row in ctx.classes[j].space.rows:
            span.insert(row)
    ok = Subspace(span.rows(), A.dim) == KA.space
    out.append(_res("kernel-image-intersection", "K_A", ok,
                    f"K_A is the sum of blocks {sorted(blocks)}"))
    for L in ctx.cos:
        p1 = coideal_product(A, L, KA)
        p2 = coideal_product(A, KA, L)
        dstar = ctx.star(ctx.star(L))
        inter = coideal_intersect(A, L, KA)
        ok = (p1.space == p2.space and dstar.space <= p1.space
              and dstar.space == inter.space)
        out.append(_res("kernel-image-intersection", L.label(), ok,
                        f"dim L**={dstar.dim}, dim L meet K_A={inter.dim}"))
    return out


def _check_dual_blocks(ctx: _Context) -> list[CheckResult]:
    """L* as a sum of class blocks, and the integral decompositions."""
    out = []
    A = ctx.A
    jof = ctx.ring.j_of
    for L in ctx.cos:
        Ls = ctx.star(L)
        want = {jof[i] for i in ctx.idx_of(L)}
        span = Echelon(A.dim)
        for j in want:
            for row in ctx.classes[j].space.rows:
                span.insert(row)
        ok1 = Subspace(span.rows(), A.dim) == Ls.space
        in_l = ctx.blocks_in(L)
        ok2 = in_l == {jof[i] for i in ctx.idx_of(Ls)}
        csum: Row = {}
        for j in in_l:
            csum = row_addmul(csum, ctx.classes[j].class_sum, ONE)
        ok3 = row_scale(csum, CycloNumber.rational(Fraction(1, L.dim))) == L.integral
        esum: Row = {}
        for i in ctx.idx_of(L):
            esum = row_addmul(esum, ctx.ring.central[i], ONE)
        ok4 = esum == L.integral
        esum2: Row = {}
        for i in ctx.idx_of(Ls):
            esum2 = row_addmul(esum2, ctx.ring.central[i], ONE)
        ok5 = esum2 == Ls.integral
        out.append(_res("dual-coideal-blocks", L.label(),
                        ok1 and ok2 and ok3 and ok4 and ok5,
                        f"L* = blocks {sorted(want)}; integral over "
                        f"{sorted(in_l)}"))
    return out


def _check_double_dual(ctx: _Context) -> list[CheckResult]:
    out = []
    for L in ctx.cos:
        back = ctx.star(ctx.star(L))
        out.append(_res("double-dual", L.label(), back.space == L.space,
                        f"dim {L.dim} -> {ctx.star(L).dim} -> {back.dim}"))
    return out


def _check_integral_transport(ctx: _Context) -> list[CheckResult]:
    """phi of the quotient integral of (A//L)* is the integral of L*."""
    out = []
    A = ctx.A
    for L in ctx.cos:
        lam = quotient_integral(A, L)
        Ls = ctx.star(L)
        ok = ctx.dm.phi(lam) == Ls.integral
        detail = "phi(lambda_L) = Lambda_{L*}"
        if ok and ctx.factorizable:
            fsum: Row = {}
            for i in ctx.idx_of(Ls):
                fsum = row_addmul(fsum, ctx.ring.idempotents[ctx.ring.j_of[i]],
                                  ONE)
            ok = fsum == lam
            detail += "; lambda_L matches its idempotent decomposition"
        out.append(_res("integral-transport", L.label(), ok, detail))
    return out


def _check_intersection_transport(ctx: _Context) -> list[CheckResult]:
    """phi((A//L)* meet (A//L*)*) = L meet L* = phi((A//L L*)*)."""
    out = []
    A = ctx.A
    for L in ctx.cos:
        Ls = ctx.star(L)
        b1 = quotient_dual(A, L)
        b2 = quotient_dual(A, Ls)
        inter = intersect(b1.rows, b2.rows, A.dim)
        image = Subspace([ctx.dm.phi(f) for f in inter], A.dim)
        target = Subspace(intersect(L.space.rows, Ls.space.rows, A.dim),
                          A.dim)
        ok = image == target
        prod = coideal_product(A, L, Ls)
        ok = ok and Subspace(inter, A.dim) == quotient_dual(A, prod)
        out.append(_res("intersection-transport", L.label(), ok,
                        f"dim phi(B meet B') = {image.dim}"))
    return out


def _commutes(A: QTAlgebra, rows1, rows2) -> bool:
    for a in rows1:
        for b in rows2:
            if mul_rows(A, a, b) != mul_rows(A, b, a):
                return False
    return True


def _check_normal_commutation(ctx: _Context) -> list[CheckResult]:
    """Elements of a normal Hopf subalgebra commute with those of its dual
    coideal; dually for the two quotient function algebras."""
    out = []
    A = ctx.A
    for L in ctx.cos:
        if not ctx.is_normal(L):
            continue
        Ls = ctx.star(L)
        ok = _commutes(A, L.space.rows, Ls.space.rows)
        detail = f"L (dim {L.dim}) with L* (dim {Ls.dim})"
        if ok and ctx.factorizable:
            b1 = quotient_dual(A, L).rows
            b2 = quotient_dual(A, Ls).rows
            ok = all(convolve(A, f, g) == convolve(A, g, f)
                     for f in b1 for g in b2)
            detail += "; dual function algebras commute"
        out.append(_res("normal-pair-commutation", L.label(), ok, detail))
    return out


def _check_normality_transport(ctx: _Context) -> list[CheckResult]:
    out = []
    for L in ctx.cos:
        if not ctx.is_normal(L):
            continue
        Ls = ctx.star(L)
        out.append(_res("normality-transport", L.label(), ctx.is_normal(Ls),
                        f"L* = {Ls.label()} is again normal Hopf"))
    return out


def _check_block_divisibility(ctx: _Context) -> list[CheckResult]:
    """Block dimensions divide the dimension of any coideal containing the
    block; squared when the quotient category is nondegenerate."""
    out = []
    for L in ctx.cos:
        nd = ctx.nondegenerate(ctx.idx_of(L))
        bad = None
        for j in ctx.blocks_in(L):
            dj = math.isqrt(ctx.classes[j].space.dim)
            if dj * dj != ctx.classes[j].space.dim:
                bad = f"block {j} is not square"
                break
            if L.dim % dj:
                bad = f"d_{j}={dj} does not divide {L.dim}"
                break
            if nd and L.dim % (dj * dj):
                bad = f"d_{j}^2={dj * dj} does not divide {L.dim}"
                break
        out.append(_res("block-dim-divisibility", L.label(), bad is None,
                        bad or ("nondegenerate quotient" if nd
                                else "degenerate quotient")))
    return out


def _check_centralizing_pairs(ctx: _Context) -> list[CheckResult]:
    """Five equivalent forms of 's_im is d_i d_m', plus the expansion of
    the s-matrix through the block coefficients of the characters."""
    out = []
    A = ctx.A
    r = ctx.r
    jof = ctx.ring.j_of
    nblocks = len(ctx.ring.idempotents)
    chars = [s.character for s in ctx.simples]
    # alpha[m][j]: coefficient of chi_m over the idempotent F_j
    alpha = [[pair_eval(convolve(A, chars[m], ctx.ring.idempotents[j]),
                        ctx.lam) * CycloNumber.rational(ctx.ring.n_values[j])
              for j in range(nblocks)] for m in range(r)]
    block_in_lker = [[all(ctx.lker(m).contains(row)
                          for row in ctx.classes[j].space.rows)
                      for m in range(r)] for j in range(nblocks)]
    for i in range(r):
        bad = None
        fi = ctx.ring.idempotents[jof[i]]
        for m in range(r):
            di, dm_ = ctx.dims[i], ctx.dims[m]
            c1 = ctx.sm.entries[i][m] == CycloNumber.rational(di * dm_)
            c2 = (convolve(A, chars[m], fi)
                  == row_scale(fi, CycloNumber.rational(dm_)))
            c3 = (convolve(A, chars[i], ctx.ring.idempotents[jof[m]])
                  == row_scale(ctx.ring.idempotents[jof[m]],
                               CycloNumber.rational(di)))
            c4 = block_in_lker[jof[i]][m]
            c5 = block_in_lker[jof[m]][i]
            if not c1 == c2 == c3 == c4 == c5:
                bad = f"equivalences split against V{m}"
                break
            if ctx.sm.entries[i][m] != CycloNumber.rational(di) * alpha[m][jof[i]]:
                bad = f"s-matrix expansion fails against V{m}"
                break
        out.append(_res("centralizing-pairs", ctx.simples[i].label(),
                        bad is None, bad or f"{r} partners"))
    return out


def _check_centralizer_membership(ctx: _Context) -> list[CheckResult]:
    """Membership in the centralizer of Rep(A//L), three ways: by the
    s-matrix, by block containment in L, by the left kernel."""
    out = []
    jof = ctx.ring.j_of
    for L in ctx.cos:
        cent = set(ctx.cent_of(L).indices)
        star_rows = ctx.star(L).space.rows
        bad = None
        for m in range(ctx.r):
            e1 = m in cent
            e2 = jof[m] in ctx.blocks_in(L)
            e3 = all(ctx.lker(m).contains(row) for row in star_rows)
            if not e1 == e2 == e3:
                bad = f"routes disagree on V{m}: {e1}/{e2}/{e3}"
                break
        out.append(_res("centralizer-membership", L.label(), bad is None,
                        bad or f"{ctx.r} simples"))
    return out


def _check_splitting_pairs(ctx: _Context) -> list[CheckResult]:
    """A normal Hopf subalgebra with nondegenerate quotient category splits
    the algebra against its dual coideal."""
    out = []
    A = ctx.A
    found = 0
    for K in ctx.cos:
        if not ctx.is_normal(K) or not ctx.nondegenerate(ctx.idx_of(K)):
            continue
        found += 1
        L = ctx.star(K)
        prod = coideal_product(A, K, L)
        inter = coideal_intersect(A, K, L)
        ok = (prod.dim == A.dim and inter.dim == 1
              and K.dim * L.dim == A.dim
              and _commutes(A, K.space.rows, L.space.rows)
              and ctx.is_normal(L)
              and ctx.cent_of(K).indices == ctx.idx_of(L))
        out.append(_res("splitting-pairs", K.label(), ok,
                        f"dims {K.dim}*{L.dim}={A.dim}, complement "
                        f"{L.label()}"))
    if not found:
        out.append(_res("splitting-pairs", "-", True,
                        "no normal coideal has a nondegenerate quotient"))
    return out


def _coinvariants(ctx: _Context, aug: Echelon, side: str) -> Subspace:
    """Solutions of a_(1) (x) pi(a_(2)) = a (x) pi(1) (or its mirror),
    with pi the projection modulo the augmentation ideal."""
    A = ctx.A
    red = [aug.reduce(A.basis(k)) for k in range(A.dim)]
    red_unit = aug.reduce(dict(A.unit_row))
    eqs: dict[tuple[int, int], Row] = {}
    for k in range(A.dim):
        for l, r in A.delta[k]:
            slot, other = (l, r) if side == "left" else (r, l)
            for m, c in red[other].items():
                acc(eqs.setdefault((slot, m), {}), k, c)
    for slot in range(A.dim):
        for m, c in red_unit.items():
            acc(eqs.setdefault((slot, m), {}), slot, -c)
    return Subspace(nullspace([r for r in eqs.values() if r], A.dim), A.dim)


def _commutant(A: QTAlgebra, rows) -> Subspace:
    eqs: list[Row] = []
    for s in rows:
        diff: dict[int, Row] = {}
        for k in range(A.dim):
            d = row_addmul(mul_rows(A, A.basis(k), s),
                           mul_rows(A, s, A.basis(k)), -ONE)
            for m, c in d.items():
                diff.setdefault(m, {})[k] = c
        eqs.extend(diff.values())
    return Subspace(nullspace(eqs, A.dim), A.dim)


def _check_coinvariants(ctx: _Context) -> list[CheckResult]:
    """Left coinvariants of the quotient map always recover L; the map is
    normal exactly when the right coinvariants do too, and exactly when
    the R-matrix legs of the quotient functions land in the commutants of
    the coinvariant spaces.  Both directions of the equivalence are hit:
    twisted coideals supply non-normal quotient maps."""
    out = []
    A = ctx.A
    for L in ctx.cos:
        aug_space = augmentation_ideal(A, L)
        aug = Echelon(A.dim)
        for row in aug_space.rows:
            aug.insert(row)
        one_minus = row_addmul(A.unit_row, L.integral, -ONE)
        right_ideal = Subspace([mul_rows(A, one_minus, A.basis(k))
                                for k in range(A.dim)], A.dim)
        ok = right_ideal == aug_space
        ok = ok and _coinvariants(ctx, aug, "left") == L.space
        co_right = _coinvariants(ctx, aug, "right")
        normal = co_right == L.space
        dual_rows = quotient_dual(A, L).rows
        comm_left = _commutant(A, L.space.rows)
        c2 = all(comm_left.contains(ctx.dm.f_r21(f)) for f in dual_rows)
        comm_right = (comm_left if normal
                      else _commutant(A, co_right.rows))
        c3 = all(comm_right.contains(ctx.dm.f_r(f)) for f in dual_rows)
        ok = ok and normal == c2 == c3
        out.append(_res("normal-quotient-coinvariants", L.label(), ok,
                        ("normal quotient map" if normal else
                         "non-normal quotient map, equivalences agree")))
    return out


def _q_fixes(ctx: _Context, L: CoidealSubalgebra,
             M: CoidealSubalgebra) -> bool:
    """Whether Q acts as the identity on Lambda_L (x) Lambda_M."""
    A = ctx.A
    got: dict[tuple[int, int], CycloNumber] = {}
    for (a, b), c in ctx.dm.q_terms.items():
        ra = mul_rows(A, A.basis(a), L.integral)
        rb = mul_rows(A, A.basis(b), M.integral)
        for i, x in ra.items():
            cx = c * x
            for j, y in rb.items():
                acc(got, (i, j), cx * y)
    want = {(i, j): x * y for i, x in L.integral.items()
            for j, y in M.integral.items()}
    return got == want


def _check_monodromy(ctx: _Context) -> list[CheckResult]:
    """Q fixes Lambda_L (x) Lambda_M exactly when Rep(A//M) centralizes
    Rep(A//L); checked with one positive and one negative witness per L."""
    if ctx.A.dim > MONODROMY_DIM_BOUND:
        return [_res("monodromy-invariants", "-", True,
                     "skipped: dim bound")]
    out = []
    for L in ctx.cos:
        cent = set(ctx.cent_of(L).indices)
        pos = ctx.cent_of(L).coideal
        ok = _q_fixes(ctx, L, pos)
        detail = f"fixed for M = {pos.label()}"
        witness = next((M for M in ctx.cos
                        if not set(ctx.idx_of(M)) <= cent), None)
        if ok and witness is not None:
            ok = not _q_fixes(ctx, L, witness)
            detail += f", moved for M = {witness.label()}"
        out.append(_res("monodromy-invariants", L.label(), ok, detail))
    return out


# scope "factorizable" entries are skipped (and say so) otherwise
_REGISTRY = (
    ("drinfeld-map-laws", "any", _check_drinfeld_laws),
    ("dim-centralizer-product", "any", _check_dim_product),
    ("double-centralizer", "any", _check_double_centralizer),
    ("centralizer-exchange", "any", _check_centralizer_exchange),
    ("lattice-duality", "any", _check_lattice_duality),
    ("kernel-image-intersection", "any", _check_kernel_image),
    ("dual-coideal-blocks", "factorizable", _check_dual_blocks),
    ("double-dual", "factorizable", _check_double_dual),
    ("integral-transport", "any", _check_integral_transport),
    ("intersection-transport", "factorizable", _check_intersection_transport),
    ("normal-pair-commutation", "any", _check_normal_commutation),
    ("normality-transport", "factorizable", _check_normality_transport),
    ("block-dim-divisibility", "factorizable", _check_block_divisibility),
    ("centralizing-pairs", "any", _check_centralizing_pairs),
    ("centralizer-membership", "any", _check_centralizer_membership),
    ("splitting-pairs", "factorizable", _check_splitting_pairs),
    ("normal-quotient-coinvariants", "any", _check_coinvariants),
    ("monodromy-invariants", "any", _check_monodromy),
)

SMOKE_CHECKS = frozenset((
    "drinfeld-map-laws", "dim-centralizer-product", "double-centralizer",
    "kernel-image-intersection", "double-dual", "integral-transport"))


def verify_identities(A: QTAlgebra, suite: str = "full",
                      seed: int = 0) -> dict:
    """Run the identity suite and return a JSON-ready report."""
    if suite not in ("smoke", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    ctx = _Context(A, seed=seed)
    checks: list[CheckResult] = []
    for cid, scope, fn in _REGISTRY:
        if suite == "smoke" and cid not in SMOKE_CHECKS:
            continue
        if scope == "factorizable" and not ctx.factorizable:
            checks.append(_res(cid, "-", True, "skipped: needs factorizable"))
            continue
        checks.extend(fn(ctx))
    checks.sort(key=lambda c: (c.id, c.subject))
    return {
        "group": A.group.name,
        "algebra": A.name,
        "suite": suite,
        "checks": [{"id": c.id, "subject": c.subject, "pass": c.passed,
                    "detail": c.detail} for c in checks],
    }


def summarize(report: dict) -> str:
    """One line per check id, plus any failing subjects."""
    lines = [f"{report['algebra']} ({report['suite']} suite)"]
    by_id: dict[str, list[dict]] = {}
    for c in report["checks"]:
        by_id.setdefault(c["id"], []).append(c)
    for cid, entries in by_id.items():
        bad = [c for c in entries if not c["pass"]]
        if bad:
            lines.append(f"  FAIL {cid}: {len(bad)}/{len(entries)} subjects")
            for c in bad:
                lines.append(f"       {c['subject']}: {c['detail']}")
        else:
            note = entries[0]["detail"] if len(entries) == 1 else \
                f"{len(entries)} subjects"
            lines.append(f"  ok   {cid}: {note}")
    return "\n".join(lines)
