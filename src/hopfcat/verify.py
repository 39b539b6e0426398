"""Cross-checks tying coideals, subcategories and the Drinfeld map together.

verify_identities recomputes both sides of a family of structural
identities from scratch and reports one verdict per subject.  Nothing is
repaired on failure: a red entry means two independently computed
structures genuinely disagree.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .coideal import (CoidealSubalgebra, coideal_from_space,
                      coideal_intersect, coideal_product, dual_coideal,
                      enumerate_coideals, is_normal_hopf_subalgebra,
                      quotient_dual)
from .cyclo import CycloNumber
from .errors import InvariantViolation
from .fusion import (centralizer, char_ring, enumerate_subcats, left_kernel,
                     quotient_integral, simple_objects, smatrix)
from .groups import memo
from .hopf import (QTAlgebra, all_classes, coinvariants, compute_K_A,
                   convolve, drinfeld_map, integrals, lmul, mul_rows,
                   noncentral_generator, pair_eval, subalgebra_generators,
                   verify_quasitriangular)
from .linalg import Echelon, Row, acc, intersect, row_scale, row_sum

# Monodromy fixed-point checks build vectors in A (x) A and are the one
# place where work grows with dim^2 * |Q|; past this bound they are skipped.
MONODROMY_DIM_BOUND = 36


class _Context:
    """Everything the individual checks share, computed once."""

    def __init__(self, A: QTAlgebra):
        self.A = A
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
        # indices of Rep(A//L) for every cataloged coideal: each one is
        # the coideal of a subcategory, C(M,H,lambda^-1) of S(M,H,lambda)
        # and k[N] of Rep(G/N)
        self.idx = {D.coideal.key(): D.indices for D in self.subs}
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

    def lker(self, i: int) -> Echelon:
        return memo(self.A, (left_kernel, i),
                    lambda: left_kernel(self.A, self.simples[i]))

    def blocks_in(self, L: CoidealSubalgebra) -> set[int]:
        """Blocks j with C^j contained in L."""
        return memo(self.A, (_Context.blocks_in, L.key()), lambda: {
            j for j, cls in enumerate(self.classes)
            if cls.space <= L.space})

    def is_normal(self, L: CoidealSubalgebra) -> bool:
        return memo(self.A, (is_normal_hopf_subalgebra, L.key()),
                    lambda: is_normal_hopf_subalgebra(self.A, L))

    def nondegenerate(self, indices) -> bool:
        return set(indices) & set(self.cent[tuple(indices)].indices) == {0}


# --- the individual checks ------------------------------------------------

# each check yields one (subject, ok, detail) verdict per subject it checks
Verdicts = Iterator[tuple[str, bool, str]]


def _check_drinfeld_laws(ctx: _Context) -> Verdicts:
    try:
        verify_quasitriangular(ctx.A, [s.character for s in ctx.simples],
                               ctx.ring)
    except InvariantViolation as exc:
        yield ctx.A.name, False, str(exc)
    else:
        yield (ctx.A.name, True,
               "multiplicativity, centrality and class stability hold")


def _check_dim_product(ctx: _Context) -> Verdicts:
    """fpdim(D) fpdim(D') = fpdim(C) fpdim(D meet C')."""
    total = ctx.full.fpdim
    cprime = ctx.cent[ctx.full.indices]
    for D in ctx.subs:
        dp = ctx.cent[D.indices]
        meet = set(D.indices) & set(cprime.indices)
        lhs = D.fpdim * dp.fpdim
        rhs = total * ctx.fpdim_of(meet)
        yield (D.label(), lhs == rhs,
               f"{D.fpdim}*{dp.fpdim} vs {total}*{ctx.fpdim_of(meet)}")


def _check_double_centralizer(ctx: _Context) -> Verdicts:
    """D'' equals the join of D with the centralizer of the whole category."""
    cprime = ctx.cent[ctx.full.indices]
    for D in ctx.subs:
        ddp = ctx.cent[ctx.cent[D.indices].indices]
        join = ctx.join(D.indices, cprime.indices)
        yield (D.label(), ddp.indices == join,
               f"fpdim {ddp.fpdim} vs {ctx.fpdim_of(join)}")


def _check_centralizer_exchange(ctx: _Context) -> Verdicts:
    """fpdim(B meet D') fpdim(D) = fpdim(B' meet D) fpdim(B), all pairs."""
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
        yield B.label(), bad is None, bad or f"{len(ctx.subs)} partners"


def _check_lattice_duality(ctx: _Context) -> Verdicts:
    """Products and intersections of coideals against meets and joins of
    their quotient categories, plus the dimension identity."""
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
        yield (L1.label(), bad is None,
               bad or f"{len(ctx.cos) - i} partners")


def _check_kernel_image(ctx: _Context) -> Verdicts:
    """L** = L meet K_A inside L K_A, and K_A is a sum of blocks."""
    A = ctx.A
    KA = coideal_from_space(A, ctx.KA)
    blocks = ctx.blocks_in(KA)
    span = Echelon(A.dim, [row for j in blocks
                           for row in ctx.classes[j].space.rows])
    yield ("K_A", span == KA.space,
           f"K_A is the sum of blocks {sorted(blocks)}")
    for L in ctx.cos:
        p1 = coideal_product(A, L, KA)
        p2 = coideal_product(A, KA, L)
        dstar = ctx.star(ctx.star(L))
        inter = coideal_intersect(A, L, KA)
        ok = (p1.space == p2.space and dstar.space <= p1.space
              and dstar.space == inter.space)
        yield (L.label(), ok,
               f"dim L**={dstar.dim}, dim L meet K_A={inter.dim}")


def _check_dual_blocks(ctx: _Context) -> Verdicts:
    """L* as a sum of class blocks, and the integral decompositions."""
    A = ctx.A
    jof = ctx.ring.j_of
    central = ctx.ring.central
    for L in ctx.cos:
        Ls = ctx.star(L)
        want = {jof[i] for i in ctx.idx_of(L)}
        span = Echelon(A.dim, [row for j in want
                               for row in ctx.classes[j].space.rows])
        in_l = ctx.blocks_in(L)
        csum = row_scale(row_sum(ctx.classes[j].class_sum for j in in_l),
                         CycloNumber.rational(Fraction(1, L.dim)))
        ok = (span == Ls.space
              and in_l == {jof[i] for i in ctx.idx_of(Ls)}
              and csum == L.integral
              and row_sum(central[i] for i in ctx.idx_of(L)) == L.integral
              and row_sum(central[i] for i in ctx.idx_of(Ls)) == Ls.integral)
        yield (L.label(), ok,
               f"L* = blocks {sorted(want)}; integral over {sorted(in_l)}")


def _check_double_dual(ctx: _Context) -> Verdicts:
    for L in ctx.cos:
        back = ctx.star(ctx.star(L))
        yield (L.label(), back.space == L.space,
               f"dim {L.dim} -> {ctx.star(L).dim} -> {back.dim}")


def _check_integral_transport(ctx: _Context) -> Verdicts:
    """phi of the quotient integral of (A//L)* is the integral of L*."""
    A = ctx.A
    for L in ctx.cos:
        lam = quotient_integral(A, L)
        Ls = ctx.star(L)
        ok = ctx.dm.phi(lam) == Ls.integral
        detail = "phi(lambda_L) = Lambda_{L*}"
        if ok and ctx.factorizable:
            ok = row_sum(ctx.ring.idempotents[ctx.ring.j_of[i]]
                         for i in ctx.idx_of(Ls)) == lam
            detail += "; lambda_L matches its idempotent decomposition"
        yield L.label(), ok, detail


def _check_intersection_transport(ctx: _Context) -> Verdicts:
    """phi((A//L)* meet (A//L*)*) = L meet L* = phi((A//L L*)*)."""
    A = ctx.A
    for L in ctx.cos:
        Ls = ctx.star(L)
        inter = intersect(quotient_dual(A, L), quotient_dual(A, Ls))
        image = Echelon(A.dim, [ctx.dm.phi(f) for f in inter.rows])
        ok = image == coideal_intersect(A, L, Ls).space
        prod = coideal_product(A, L, Ls)
        ok = ok and inter == quotient_dual(A, prod)
        yield L.label(), ok, f"dim phi(B meet B') = {image.dim}"


def _commutes(A: QTAlgebra, rows1, rows2) -> bool:
    """Whether every row of rows1 commutes with every row of rows2.

    By bilinearity, that is whether the spans commute.  Lemma: the
    centralizer of a set is a subalgebra ((ab)x = a(xb) = x(ab), and 1
    passes), so rows commuting with generators of a subalgebra commute
    with all of it; callers pass subalgebra_generators for subalgebras.
    """
    for a in rows1:
        for b in rows2:
            if mul_rows(A, a, b) != mul_rows(A, b, a):
                return False
    return True


def _check_normal_commutation(ctx: _Context) -> Verdicts:
    """Elements of a normal Hopf subalgebra commute with those of its dual
    coideal; dually for the two quotient function algebras."""
    A = ctx.A
    for L in ctx.cos:
        if not ctx.is_normal(L):
            continue
        Ls = ctx.star(L)
        ok = _commutes(A, subalgebra_generators(A, L.space),
                       subalgebra_generators(A, Ls.space))
        detail = f"L (dim {L.dim}) with L* (dim {Ls.dim})"
        if ok and ctx.factorizable:
            b1 = quotient_dual(A, L).rows
            b2 = quotient_dual(A, Ls).rows
            ok = all(convolve(A, f, g) == convolve(A, g, f)
                     for f in b1 for g in b2)
            detail += "; dual function algebras commute"
        yield L.label(), ok, detail


def _check_normality_transport(ctx: _Context) -> Verdicts:
    for L in ctx.cos:
        if not ctx.is_normal(L):
            continue
        Ls = ctx.star(L)
        yield (L.label(), ctx.is_normal(Ls),
               f"L* = {Ls.label()} is again normal Hopf")


def _check_block_divisibility(ctx: _Context) -> Verdicts:
    """Block dimensions divide the dimension of any coideal containing the
    block; squared when the quotient category is nondegenerate."""
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
        yield (L.label(), bad is None,
               bad or ("nondegenerate quotient" if nd
                       else "degenerate quotient"))


def _check_centralizing_pairs(ctx: _Context) -> Verdicts:
    """Five equivalent forms of 's_im is d_i d_m', plus the expansion of
    the s-matrix through the block coefficients of the characters."""
    A = ctx.A
    r = ctx.r
    jof = ctx.ring.j_of
    nblocks = len(ctx.ring.idempotents)
    chars = [s.character for s in ctx.simples]
    # alpha[m][j]: coefficient of chi_m over the idempotent F_j
    alpha = [[pair_eval(convolve(A, chars[m], ctx.ring.idempotents[j]),
                        ctx.lam) * CycloNumber.rational(ctx.ring.n_values[j])
              for j in range(nblocks)] for m in range(r)]
    block_in_lker = [[ctx.classes[j].space <= ctx.lker(m) for m in range(r)]
                     for j in range(nblocks)]
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
        yield ctx.simples[i].label(), bad is None, bad or f"{r} partners"


def _check_centralizer_membership(ctx: _Context) -> Verdicts:
    """Membership in the centralizer of Rep(A//L), three ways: by the
    s-matrix, by block containment in L, by the left kernel."""
    jof = ctx.ring.j_of
    for L in ctx.cos:
        cent = set(ctx.cent_of(L).indices)
        star = ctx.star(L).space
        bad = None
        for m in range(ctx.r):
            e1 = m in cent
            e2 = jof[m] in ctx.blocks_in(L)
            e3 = star <= ctx.lker(m)
            if not e1 == e2 == e3:
                bad = f"routes disagree on V{m}: {e1}/{e2}/{e3}"
                break
        yield L.label(), bad is None, bad or f"{ctx.r} simples"


def _check_splitting_pairs(ctx: _Context) -> Verdicts:
    """A normal Hopf subalgebra with nondegenerate quotient category splits
    the algebra against its dual coideal.  K = A always qualifies: it is a
    normal Hopf subalgebra and Rep(A//A) = Vec is nondegenerate."""
    A = ctx.A
    for K in ctx.cos:
        if not ctx.is_normal(K) or not ctx.nondegenerate(ctx.idx_of(K)):
            continue
        L = ctx.star(K)
        prod = coideal_product(A, K, L)
        inter = coideal_intersect(A, K, L)
        ok = (prod.dim == A.dim and inter.dim == 1
              and K.dim * L.dim == A.dim
              and _commutes(A, subalgebra_generators(A, K.space),
                            subalgebra_generators(A, L.space))
              and ctx.is_normal(L)
              and ctx.cent_of(K).indices == ctx.idx_of(L))
        yield (K.label(), ok,
               f"dims {K.dim}*{L.dim}={A.dim}, complement {L.label()}")


def _coinvariants(A: QTAlgebra, dual: Echelon, side: str) -> Echelon:
    """Solutions of a_(1) (x) pi(a_(2)) = a (x) pi(1) (or its mirror),
    with pi(x) = (f(x)) for f in the reduced rows of dual = (A//L)*.

    Lemma: dual spans the annihilator of A L+ (quotient_dual), so pi has
    kernel exactly A L+: it is the projection A -> A//L followed by an
    injective map, and the solutions are those of the equations mod A L+.
    """
    # pi(e_k), by transposing the rows of dual
    pi: list[Row] = [{} for _ in range(A.dim)]
    for m, f in enumerate(dual.rows):
        for k, c in f.items():
            pi[k][m] = c
    pi_unit = {m: v for m, f in enumerate(dual.rows)
               if (v := pair_eval(f, A.unit_row))}
    return coinvariants(A, pi, pi_unit, side)


def _check_coinvariants(ctx: _Context) -> Verdicts:
    """Left coinvariants of the quotient map always recover L; the map is
    normal exactly when the right coinvariants do too, and exactly when
    the R-matrix legs of the quotient functions land in the commutants of
    the coinvariant spaces.  Both directions of the equivalence are hit:
    twisted coideals supply non-normal quotient maps.

    A//L is read only through (A//L)* (_coinvariants).  quotient_dual
    certifies A L+ = A (1 - Lambda_L), of dimension dim A - dim A/dim L
    (lemma there), and that ideal is two-sided exactly when Lambda_L is
    central (noncentral_generator).  Lemma: an idempotent e has A e = e A
    exactly when it is central (e a = a' e gives e a e = e a, and a e =
    e a'' gives e a e = a e), and 1 - e is idempotent with e.
    Commutation is checked on the generators of L, or on the rows of the
    right coinvariants of a non-normal map (_commutes).
    """
    A = ctx.A
    for L in ctx.cos:
        dual = quotient_dual(A, L)
        ok = noncentral_generator(A, L.integral) is None
        ok = ok and _coinvariants(A, dual, "left") == L.space
        co_right = _coinvariants(A, dual, "right")
        normal = co_right == L.space
        gens = subalgebra_generators(A, L.space)
        c2 = _commutes(A, (ctx.dm.f_r21(f) for f in dual.rows), gens)
        c3 = _commutes(A, (ctx.dm.f_r(f) for f in dual.rows),
                       gens if normal else co_right.rows)
        ok = ok and normal == c2 == c3
        yield (L.label(), ok, "normal quotient map" if normal
               else "non-normal quotient map, equivalences agree")


def _q_fixes(ctx: _Context, L: CoidealSubalgebra,
             M: CoidealSubalgebra) -> bool:
    """Whether Q acts as the identity on Lambda_L (x) Lambda_M."""
    A = ctx.A
    got: dict[tuple[int, int], CycloNumber] = {}
    for (a, b), c in ctx.dm.q_terms.items():
        ra = lmul(A, a, L.integral)
        rb = lmul(A, b, M.integral)
        for i, x in ra.items():
            cx = c * x
            for j, y in rb.items():
                acc(got, (i, j), cx * y)
    want = {(i, j): x * y for i, x in L.integral.items()
            for j, y in M.integral.items()}
    return got == want


def _check_monodromy(ctx: _Context) -> Verdicts:
    """Q fixes Lambda_L (x) Lambda_M exactly when Rep(A//M) centralizes
    Rep(A//L); checked with one positive and one negative witness per L."""
    if ctx.A.dim > MONODROMY_DIM_BOUND:
        yield "-", True, "skipped: dim bound"
        return
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
        yield L.label(), ok, detail


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
    """Run the identity suite and return a JSON-ready report.

    No check samples, so the report does not depend on seed; the
    keyword stays for callers that still pass it, and is ignored.
    """
    if suite not in ("smoke", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    ctx = _Context(A)
    checks: list[dict] = []
    for cid, scope, fn in _REGISTRY:
        if suite == "smoke" and cid not in SMOKE_CHECKS:
            continue
        verdicts = (fn(ctx) if scope == "any" or ctx.factorizable
                    else [("-", True, "skipped: needs factorizable")])
        checks.extend({"id": cid, "subject": subject, "pass": ok,
                       "detail": detail} for subject, ok, detail in verdicts)
    checks.sort(key=lambda c: (c["id"], c["subject"]))
    return {"group": A.group.name, "algebra": A.name, "suite": suite,
            "checks": checks}


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
