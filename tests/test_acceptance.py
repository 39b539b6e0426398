"""Acceptance suite: one check per shipped guarantee, one line each.

Each test prints a single PASS/FAIL line; the assertion carries the
same line so a failure is visible in both places.  The only numeric
tolerance in the package is the 1e-9 bound check in criterion 9;
everything else is exact arithmetic.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from hopfcat.chartab import character_table
from hopfcat.coideal import (
    Bicharacter,
    build_coideal,
    coideal_intersect,
    coideal_product,
    dual_coideal,
    enumerate_coideals,
    enumerate_invariant_bicharacters,
    is_normal_hopf_subalgebra,
)
from hopfcat.cyclo import CycloNumber, as_cyclo
from hopfcat.errors import MethodPreconditionViolated
from hopfcat.fusion import (
    centralizer,
    char_ring,
    dual_index,
    enumerate_subcats,
    fusion_table,
    quotient_irreps,
    simple_objects,
    smatrix,
    subcat_from_triple,
)
from hopfcat.groups import (
    commute_elementwise,
    normal_subgroups,
    parse_group_spec,
    subgroup_generated,
)
from hopfcat.hopf import (
    compute_K_A,
    drinfeld_map,
    integrals,
    mul_rows,
    pair_eval,
    verify_axioms,
    verify_quasitriangular,
)
from hopfcat.linalg import row_addmul, row_scale
from hopfcat.verify import verify_identities

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "convention.json")
TIME_BUDGET_S = 600.0
NUMERIC_TOL = 1e-9


def _emit(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_reports(doubles):
    return {name: verify_identities(A, suite="full", seed=0)
            for name, A in doubles.items()}


def test_c1_three_method_centralizer_agreement(doubles):
    t0 = time.monotonic()
    checked = 0
    disagreements = []
    for name, A in doubles.items():
        for sub in enumerate_subcats(A):
            got = {m: centralizer(A, sub, m).indices
                   for m in ("smatrix", "phi", "classes")}
            if len(set(got.values())) != 1:
                disagreements.append((name, sub.label(), got))
            checked += 1
    elapsed = time.monotonic() - t0
    ok = not disagreements and checked == 222 and elapsed < TIME_BUDGET_S
    _emit("three-method centralizer agreement", ok,
          f"{checked} subcategories over 9 groups, "
          f"{len(disagreements)} disagreements, {elapsed:.1f}s")


def test_c2_double_nondegeneracy(doubles):
    bad = []
    for name, A in doubles.items():
        n2 = A.group.n ** 2
        if drinfeld_map(A).rank != n2:
            bad.append((name, "rank"))
        for sub in enumerate_subcats(A):
            if sub.fpdim * centralizer(A, sub, "smatrix").fpdim != n2:
                bad.append((name, sub.label()))
    _emit("factorizability of doubles", not bad,
          f"full-rank Drinfeld map and fpdim(D) * fpdim(D') = |G|^2 "
          f"for all 9 groups; failures: {bad}")


def test_c3_triangular_control(triangular_s3):
    A = triangular_s3
    ka = compute_K_A(A)
    subs = enumerate_subcats(A)
    full = max(subs, key=lambda s: s.fpdim)
    ok = ka.dim == 1 and ka.contains(A.unit_row)
    raised = 0
    for sub in subs:
        ok = ok and centralizer(A, sub, "smatrix").indices == full.indices
        ok = ok and centralizer(A, sub, "phi").indices == full.indices
        try:
            centralizer(A, sub, "classes")
        except MethodPreconditionViolated:
            raised += 1
    ok = ok and raised == len(subs)
    _emit("triangular control", ok,
          f"group algebra of S3 with R = 1x1: K_A is the line of 1, "
          f"{len(subs)} subcategories all centralize to the full category, "
          f"classes method refused {raised} times")


def test_c4_triple_conventions_frozen(doubles):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    bad = []
    triples = 0
    for name in ("S3", "D4", "Q8"):
        A = doubles[name]
        G = A.group
        normals = normal_subgroups(G)
        for M in normals:
            for H in normals:
                if not commute_elementwise(M, H):
                    continue
                for bc in enumerate_invariant_bicharacters(G, M, H):
                    triples += 1
                    L = build_coideal(A, M, H, bc)
                    want = subcat_from_triple(A, M, H, bc.inverse())
                    if quotient_irreps(A, L).indices != want.indices:
                        bad.append((name, "pairing", M.members, H.members))
                    S = subcat_from_triple(A, M, H, bc)
                    # bc^op, the transpose bc(h, m) on H x M
                    op = Bicharacter(H.members, M.members,
                                     tuple(zip(*bc.values)))
                    swap = subcat_from_triple(A, H, M, op.inverse())
                    if centralizer(A, S, "smatrix").indices != swap.indices:
                        bad.append((name, "centralizer", M.members, H.members))
    conventions_ok = (
        golden["triple_pairing"] == "quotient_irreps(C(M,H,B)) == S(M,H,B^-1)"
        and golden["centralizer_rule"] == "centralizer(S(M,H,B)) == S(H,M,B^op^-1)"
        and all(smatrix(doubles[n]).phi_relation == golden["phi_relation"][n]
                for n in doubles))
    ok = not bad and conventions_ok and triples == 8 + 45 + 45
    _emit("triple conventions", ok,
          f"{triples} triples on S3/D4/Q8 match the inverse pairing and "
          f"op-inverse centralizer rule; golden file agrees: {conventions_ok}; "
          f"failures: {bad}")


def test_c5_class_structure(doubles):
    A = doubles["S3"]
    ring = char_ring(A)
    classes = ring.classes
    dims_ok = sorted(c.space.dim for c in classes) == [1, 1, 4, 4, 4, 4, 9, 9]
    lam, _ = integrals(A)
    n_ok = all(isinstance(n, int) and n > 0 and
               pair_eval(f, lam) == as_cyclo(Fraction(1, n))
               for f, n in zip(ring.idempotents, ring.n_values))
    decomposed = 0
    bad = []
    for name, B in doubles.items():
        cls = char_ring(B).classes
        for L in enumerate_coideals(B):
            in_l = [c.class_sum for c in cls
                    if all(L.space.contains(r) for r in c.space.rows)]
            tot = {}
            for s in in_l:
                tot = row_addmul(tot, s, as_cyclo(1))
            if row_scale(tot, as_cyclo(Fraction(1, L.dim))) != L.integral:
                bad.append((name, L.label()))
            decomposed += 1
    ok = dims_ok and n_ok and not bad
    _emit("conjugacy class structure", ok,
          f"D(S3) class dims {{1,1,4,4,4,4,9,9}}: {dims_ok}; "
          f"F_j(Lambda) = 1/n_j with integer n_j: {n_ok}; "
          f"integral decomposition exact for {decomposed} coideals; "
          f"failures: {bad}")


def test_c6_duality_transport_suite(full_reports):
    wanted = ("dual-coideal-blocks", "double-dual", "integral-transport",
              "intersection-transport", "normal-pair-commutation",
              "normality-transport")
    bad = []
    counted = 0
    for name, report in full_reports.items():
        for c in report["checks"]:
            if c["id"] in wanted:
                counted += 1
                if not c["pass"]:
                    bad.append((name, c["id"], c["subject"]))
    ok = not bad and counted > 0
    _emit("duality and transport identities", ok,
          f"{counted} checks across 9 groups (dual blocks, double dual, "
          f"integral transport, intersection transport, commutation, "
          f"normality); failures: {bad}")


def test_c7_factorization_mechanics(double_z6):
    A = double_z6
    G = A.group
    M = subgroup_generated(G, [2])
    H = subgroup_generated(G, [3])
    bc = enumerate_invariant_bicharacters(G, M, H)[0]
    K = build_coideal(A, M, H, bc)
    Ks = dual_coideal(A, K)
    D = quotient_irreps(A, K)
    Dc = centralizer(A, D, "smatrix")
    nondeg = set(D.indices) & set(Dc.indices) == {0}
    commute = all(mul_rows(A, a, b) == mul_rows(A, b, a)
                  for a in K.space.rows for b in Ks.space.rows)
    ok = (is_normal_hopf_subalgebra(A, K)
          and K.dim == 4 and Ks.dim == 9 and K.dim * Ks.dim == 36
          and coideal_product(A, K, Ks).dim == A.dim
          and coideal_intersect(A, K, Ks).dim == 1
          and commute and nondeg)
    _emit("factorization mechanics", ok,
          f"D(Z6), K of dim {K.dim} with dual of dim {Ks.dim}: "
          f"K K* = A, K meet K* = k, elementwise commutation {commute}, "
          f"quotient category nondegenerate {nondeg}, product dim 36")


def _bf_subcats(A):
    """Closure enumeration straight off the fusion table."""
    table = fusion_table(A)
    dual = dual_index(A)
    r = len(table)
    nz = [[tuple(k for k, n in enumerate(table[i][j]) if n)
           for j in range(r)] for i in range(r)]

    def close(seed):
        s = set(seed)
        s.add(0)
        frontier = list(s)
        while frontier:
            cur = list(s)
            nxt = []
            for i in frontier:
                if dual[i] not in s:
                    s.add(dual[i])
                    nxt.append(dual[i])
                for j in cur:
                    for k in nz[i][j] + nz[j][i]:
                        if k not in s:
                            s.add(k)
                            nxt.append(k)
            frontier = nxt
        # one fixed-point sweep to catch products among late arrivals
        changed = True
        while changed:
            changed = False
            cur = list(s)
            for i in cur:
                for j in cur:
                    for k in nz[i][j]:
                        if k not in s:
                            s.add(k)
                            changed = True
        return frozenset(s)

    found = {close(())}
    frontier = list(found)
    while frontier:
        grown = []
        for S in frontier:
            for i in range(r):
                if i in S:
                    continue
                T = close(S | {i})
                if T not in found:
                    found.add(T)
                    grown.append(T)
        frontier = grown
    return {tuple(sorted(S)) for S in found}


def test_c8_lattice_oracle_equivalence(doubles):
    bad = []
    counts = {}
    for name, A in doubles.items():
        brute = _bf_subcats(A)
        param = {s.indices for s in enumerate_subcats(A)}
        counts[name] = len(param)
        if brute != param:
            bad.append((name, len(brute), len(param)))
    ok = not bad and counts["Z2"] == 5
    _emit("lattice oracle equivalence", ok,
          f"triple enumeration equals closure enumeration on all 9 groups "
          f"{counts}; failures: {bad}")


def test_c9_foundations(doubles, triangular_s3):
    rng = random.Random(0)
    ring_ok = True
    for order in (1, 4, 6, 12):
        vals = []
        for _ in range(4):
            coeffs = {rng.randrange(order): Fraction(rng.randrange(-4, 5), 3)
                      for _ in range(3)}
            vals.append(CycloNumber(order, coeffs))
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            ring_ok = ring_ok and (a + b) * c == a * c + b * c
            ring_ok = ring_ok and (a * b) * c == a * (b * c)
            ring_ok = ring_ok and a + b == b + a and a * b == b * a

    ortho_ok = True
    for name in doubles:
        t = character_table(parse_group_spec(name))  # verifies orthogonality
        ortho_ok = ortho_ok and sum(d * d for d in t.degrees) == t.group.n

    axioms = 0
    for A in list(doubles.values()) + [triangular_s3]:
        verify_axioms(A)
        chars = [s.character for s in simple_objects(A)]
        verify_quasitriangular(A, chars, char_ring(A))
        axioms += 1

    sym_ok = True
    bound_ok = True
    for name, A in doubles.items():
        sm = smatrix(A)
        dims = [s.dim for s in sm.simples]
        for i, row in enumerate(sm.entries):
            for j, v in enumerate(row):
                sym_ok = sym_ok and v == sm.entries[j][i]
                bound_ok = bound_ok and (
                    abs(v.to_complex()) <= dims[i] * dims[j] + NUMERIC_TOL)

    ok = ring_ok and ortho_ok and axioms == 10 and sym_ok and bound_ok
    _emit("foundational exactness", ok,
          f"ring axioms {ring_ok}, orthogonality {ortho_ok}, "
          f"Hopf/R axioms on {axioms} algebras, s-matrix symmetry {sym_ok}, "
          f"|s_ij| <= d_i d_j at {NUMERIC_TOL}: {bound_ok}")
