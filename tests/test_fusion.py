import dataclasses
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat import build_double, coideal, fusion, linalg, parse_group_spec
from hopfcat.coideal import (coideal_triples, enumerate_coideals,
                             quotient_dual, triple_coideal)
from hopfcat.cyclo import ONE, ZERO, CycloNumber, as_cyclo, dot
from hopfcat.errors import (HopfcatError, InvariantViolation,
                            MethodPreconditionViolated)
from hopfcat.fusion import (
    _closure,
    _verify_module,
    _fusion_supports,
    centralizer,
    dual_index,
    enumerate_subcats,
    fusion_table,
    generated_subcategory,
    left_kernel,
    quotient_integral,
    quotient_irreps,
    simple_objects,
    smatrix,
)
from hopfcat.hopf import (QTAlgebra, convolve, drinfeld_map, dual_character,
                          generators,
                          harpoon_right, integrals, pair_eval)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "convention.json")

EXPECTED_SUBCATS = {
    "Z1": 1, "Z2": 5, "Z3": 6, "Z4": 15, "Z2xZ2": 67,
    "Z6": 30, "S3": 8, "D4": 45, "Q8": 45,
}


def _load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_simple_dims(doubles):
    for name, A in doubles.items():
        simples = simple_objects(A)
        assert sum(s.dim ** 2 for s in simples) == A.dim, name
    dims = [s.dim for s in simple_objects(doubles["S3"])]
    assert sorted(dims) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert dims[0] == 1  # unit object first


def test_fusion_table_consistency(double_s3):
    A = double_s3
    simples = simple_objects(A)
    table = fusion_table(A)
    dual = dual_index(A)
    r = len(simples)
    for i in range(r):
        # unit acts as identity
        assert table[0][i] == [1 if k == i else 0 for k in range(r)]
        # dims are multiplicative
        for j in range(r):
            assert sum(table[i][j][k] * simples[k].dim for k in range(r)) \
                == simples[i].dim * simples[j].dim
            # N_ij^0 = [j == i*]
            assert table[i][j][0] == (1 if j == dual[i] else 0)
    # Frobenius reciprocity N_ij^k = N_(i*)k^j
    for i in range(r):
        for j in range(r):
            for k in range(r):
                assert table[i][j][k] == table[dual[i]][k][j]


def test_fusion_associativity(double_s3):
    table = fusion_table(double_s3)
    r = len(table)
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for m in range(r):
                    lhs = sum(table[i][j][t] * table[t][k][m] for t in range(r))
                    rhs = sum(table[j][k][t] * table[i][t][m] for t in range(r))
                    assert lhs == rhs


def test_smatrix_symmetric_full_rank(doubles):
    for name, A in doubles.items():
        sm = smatrix(A)
        r = len(sm.simples)
        assert sm.rank == r, name
        for i in range(r):
            assert sm.entries[0][i] == as_cyclo(sm.simples[i].dim)
            for j in range(r):
                assert sm.entries[i][j] == sm.entries[j][i]


def test_smatrix_numeric_bound(doubles):
    # |s_ij| <= d_i d_j, the one numeric check in the system
    for name, A in doubles.items():
        sm = smatrix(A)
        dims = [s.dim for s in sm.simples]
        for i, row in enumerate(sm.entries):
            for j, v in enumerate(row):
                assert abs(v.to_complex()) <= dims[i] * dims[j] + 1e-9, name


def test_smatrix_golden(doubles):
    golden = _load_golden()
    for name in ("Z3", "S3"):
        sm = smatrix(doubles[name])
        want = [[CycloNumber.from_json(v) for v in row]
                for row in golden["smatrix"][name]]
        assert sm.entries == want, name


def test_phi_relation_golden(doubles):
    golden = _load_golden()
    for name, A in doubles.items():
        assert smatrix(A).phi_relation == golden["phi_relation"][name], name


def test_subcat_counts(doubles):
    for name, A in doubles.items():
        subs = enumerate_subcats(A)
        assert len(subs) == EXPECTED_SUBCATS[name], name
        fpdims = [s.fpdim for s in subs]
        assert fpdims == sorted(fpdims)
        assert fpdims[0] == 1 and fpdims[-1] == A.dim


def test_subcats_are_closed(double_s3):
    A = double_s3
    table = fusion_table(A)
    dual = dual_index(A)
    for sub in enumerate_subcats(A):
        idx = set(sub.indices)
        assert 0 in idx
        for i in idx:
            assert dual[i] in idx
            for j in idx:
                for k, nk in enumerate(table[i][j]):
                    if nk:
                        assert k in idx


def test_s3_lattice_fpdims(double_s3):
    subs = enumerate_subcats(double_s3)
    assert [s.fpdim for s in subs] == [1, 2, 6, 6, 6, 6, 18, 36]
    labels = [s.label() for s in subs]
    assert len(set(labels)) == len(labels)


def test_subcat_coideal_pairing(doubles):
    # every subcategory carries the coideal that induces it
    for name in ("S3", "Z4"):
        A = doubles[name]
        for sub in enumerate_subcats(A):
            L = sub.coideal
            assert L is not None
            assert quotient_irreps(A, L).indices == sub.indices
            assert L.dim * sub.fpdim == A.dim


def test_quotient_integral(double_s3):
    A = double_s3
    for L in enumerate_coideals(A):
        lam = quotient_integral(A, L)
        assert pair_eval(lam, A.unit_row) == as_cyclo(1)
        assert convolve(A, lam, lam) == lam


def test_centralizer_methods_agree(double_s3):
    A = double_s3
    for sub in enumerate_subcats(A):
        got = {m: centralizer(A, sub, m).indices
               for m in ("smatrix", "phi", "classes")}
        assert got["smatrix"] == got["phi"] == got["classes"], sub.label()


def test_centralizer_is_order_reversing_involution(double_s3):
    A = double_s3
    subs = enumerate_subcats(A)
    for sub in subs:
        c = centralizer(A, sub, "smatrix")
        cc = centralizer(A, c, "smatrix")
        assert cc.indices == sub.indices  # nondegenerate: double centralizer
        assert sub.fpdim * c.fpdim == A.dim


def test_triangular_centralizers(triangular_s3):
    A = triangular_s3
    subs = enumerate_subcats(A)
    assert [s.fpdim for s in subs] == [1, 2, 6]
    full = subs[-1]
    for sub in subs:
        assert centralizer(A, sub, "smatrix").indices == full.indices
        assert centralizer(A, sub, "phi").indices == full.indices
        with pytest.raises(MethodPreconditionViolated):
            centralizer(A, sub, "classes")


def test_left_kernel_dims(double_s3):
    A = double_s3
    simples = simple_objects(A)
    for s in simples:
        ker = left_kernel(A, s)
        assert A.dim % ker.dim == 0
    # unit object: everything acts trivially
    assert left_kernel(A, simples[0]).dim == A.dim


def test_generated_subcategory(double_s3):
    A = double_s3
    subs = enumerate_subcats(A)
    for sub in subs:
        gen = generated_subcategory(A, sub.indices)
        assert gen.indices == sub.indices
    # single nontrivial generator
    g = generated_subcategory(A, [1])
    assert g.indices == (0, 1)


def test_not_closed_rejected(double_s3):
    from hopfcat.fusion import _mk_subcat
    with pytest.raises(InvariantViolation,
                       match=r"^D\(S3\): fusion closure fails on simple set "
                             r"\[0, 2\]$"):
        _mk_subcat(double_s3, (0, 2))


def _fresh_copy(A):
    """The same algebra with an empty memo."""
    return QTAlgebra(A.name, A.kind, A.group, A.labels, A.prod_idx, A.delta,
                     A.counit, A.s_idx, A.r_terms, A.unit_row)


def test_fusion_failure_names_subject(double_s3):
    A = _fresh_copy(double_s3)
    dual = dual_index(A)
    wrong = (dual[2] + 1) % len(dual)
    first = min(dual[2], wrong)
    dual[2] = wrong  # corrupt the memoized dual index in place
    with pytest.raises(InvariantViolation) as err:
        fusion_table(A)
    assert str(err.value) == f"D(S3): fusion duality fails on V2 x V{first}"


def test_quotient_failure_names_coideal(double_s3):
    # a coideal whose space (dim 18) is not that of its integral (dim 6)
    coideals = enumerate_coideals(double_s3)
    L = next(L for L in coideals if L.dim == 6)
    bad = dataclasses.replace(
        L, space=next(K for K in coideals if K.dim == 18).space)
    with pytest.raises(InvariantViolation) as err:
        quotient_irreps(double_s3, bad)
    assert str(err.value) == (
        f"D(S3): quotient dimension fails on {bad.label()}")


# --- a forced disagreement of two routes names the algebra and its subject


def test_quotient_dual_route_mismatch_names_coideal(double_s3, monkeypatch):
    A = _fresh_copy(double_s3)
    L = enumerate_coideals(A)[1]
    monkeypatch.setattr(coideal, "left_quotients",
                        lambda A: [[-1] * A.dim for _ in range(A.dim)])
    with pytest.raises(InvariantViolation,
                       match="agreement of the two") as err:
        quotient_dual(A, L)
    assert str(err.value) == (
        f"D(S3): agreement of the two (A//L)* routes fails on {L.label()}")


def test_triple_quotient_mismatch_names_coideal(double_s3, monkeypatch):
    A = _fresh_copy(double_s3)
    M, H, bc = list(coideal_triples(A.group))[-1]
    L = triple_coideal(A, M, H, bc.inverse())
    original = fusion.quotient_irreps
    monkeypatch.setattr(fusion, "quotient_irreps", lambda A, L: (
        dataclasses.replace(original(A, L), indices=(0,))))
    with pytest.raises(InvariantViolation, match="quotient = S") as err:
        fusion.subcat_from_triple(A, M, H, bc)
    message = str(err.value)
    assert message.startswith("D(S3): quotient = S(M=")
    assert message.endswith(f" fails on {L.label()}")


def test_classes_centralizer_mismatch_names_coideal(double_s3, monkeypatch):
    A = _fresh_copy(double_s3)
    D = enumerate_subcats(A)[-1]
    centralizer(A, D, "classes")
    monkeypatch.setattr(fusion, "pair_eval", lambda f, a: ZERO)
    with pytest.raises(InvariantViolation,
                       match="agreement of class membership") as err:
        centralizer(A, D, "classes")
    assert str(err.value) == (
        "D(S3): agreement of class membership and idempotent evaluation "
        f"fails on {D.coideal.label()}")


def test_catalog_lookup_names_the_algebra(double_s3):
    with pytest.raises(InvariantViolation) as err:
        fusion._catalog_lookup(double_s3, (99,))
    assert str(err.value) == (
        "D(S3): catalog membership fails on simple set [99]")


def _double_character(s):
    return dataclasses.replace(
        s, character={k: v + v for k, v in s.character.items()})


def _double_module(s):
    return dataclasses.replace(
        _double_character(s),
        matrices={k: [[v + v for v in row] for row in m]
                  for k, m in s.matrices.items()})


def _extra_q_term(A):
    # a term off the support of the trivial character, seen by the
    # character and trace routes but not by the Drinfeld map's table
    drinfeld_map(A).q_terms[A.pair_index(1, 0), A.pair_index(3, 0)] = ONE


@pytest.mark.parametrize("mutate, message", [
    (lambda A, ss: ss.__setitem__(1, _double_character(ss[1])),
     "D(S3): S-matrix character/trace agreement fails on s[0][1]"),
    (lambda A, ss: _extra_q_term(A),
     "D(S3): S-matrix Drinfeld-map form (plain or dual-flip convention) "
     "fails"),
    (lambda A, ss: ss.__setitem__(1, _double_module(ss[1])),
     "D(S3): S-matrix first row (dimensions) fails on s[0][1]"),
], ids=["trace", "drinfeld-map", "first-row"])
def test_smatrix_failure_names_subject(double_s3, mutate, message):
    A = _fresh_copy(double_s3)   # the shared double's memo stays clean
    dual_index(A)                # memoized from the true simples
    mutate(A, simple_objects(A))
    with pytest.raises(HopfcatError) as err:
        smatrix(A)
    assert str(err.value) == message


def _fixed_point_closure(table, dual, seed):
    """Reference: rescan every pair and every dual until a pass adds
    nothing."""
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


def _closure_agrees(A, seed):
    got = _closure(_fusion_supports(A), dual_index(A), frozenset(seed))
    return got == _fixed_point_closure(fusion_table(A), dual_index(A), seed)


def test_closure_matches_fixed_point(doubles, triangular_s3):
    for A in [doubles[n] for n in ("S3", "Q8", "D4")] + [triangular_s3]:
        r = len(simple_objects(A))
        assert _closure_agrees(A, ())
        for i in range(r):
            for j in range(i, r):
                assert _closure_agrees(A, {i, j}), (A.name, i, j)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 21), max_size=6))
def test_closure_matches_fixed_point_random_seeds(seed):
    A = build_double(parse_group_spec("D4"))
    assert len(simple_objects(A)) == 22
    assert _closure_agrees(A, seed)


def test_closure_defect_reaches_oracle(doubles, monkeypatch):
    A = _fresh_copy(doubles["D4"])
    supp = _fusion_supports(A)
    # V1 x V2 = V3 among the invertible simples.  The fusion ring is
    # commutative and the closure reads both orders, so dropping the one
    # rule N_12^3 = N_21^3 means dropping it from both supports.
    assert supp[1][2] == supp[2][1] == (3,)
    bad = [list(row) for row in supp]
    bad[1][2] = bad[2][1] = ()
    monkeypatch.setattr(fusion, "_fusion_supports", lambda A: bad)
    with pytest.raises(InvariantViolation,
                       match=r"^D\(D4\): agreement of the parameterized and "
                             r"brute-force subcategory enumerations fails on "):
        enumerate_subcats(A)


def _full_scan_fusion_table(A):
    """Reference: every simple paired against every convolution."""
    simples = simple_objects(A)
    lam, _ = integrals(A)
    ws = [harpoon_right(A, dual_character(A, s.character), lam)
          for s in simples]
    table = []
    for si in simples:
        row_i = []
        for sj in simples:
            conv = convolve(A, si.character, sj.character)
            row_i.append([pair_eval(conv, w).rational_value() for w in ws])
        table.append(row_i)
    return table


def test_fusion_table_matches_full_scan(doubles, triangular_s3):
    for A in [doubles[n] for n in ("S3", "Q8", "D4")] + [triangular_s3]:
        assert fusion_table(A) == _full_scan_fusion_table(A), A.name


def _verlinde_agrees(A):
    """Reference from the S-matrix alone, by the Verlinde formula:
    N_ij^k = (1/dim A) sum_m s_im s_jm conj(s_km) / s_0m, exactly.  It
    reads neither convolve nor pair_eval."""
    s = smatrix(A).entries
    r = len(s)
    scale = [CycloNumber.rational(Fraction(1, A.dim)) / s[0][m]
             for m in range(r)]
    conj = [[v.conjugate() for v in row] for row in s]
    table = fusion_table(A)
    for i in range(r):
        for j in range(r):
            u = [s[i][m] * s[j][m] * scale[m] for m in range(r)]
            for k in range(r):
                if dot(list(zip(u, conj[k]))) != as_cyclo(table[i][j][k]):
                    return False
    return True


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ2"])
def test_fusion_table_satisfies_verlinde(doubles, name):
    assert _verlinde_agrees(doubles[name])


@pytest.mark.large
@pytest.mark.parametrize("name", ["D6", "Z7"])
def test_fusion_table_matches_full_scan_large(name):
    A = build_double(parse_group_spec(name))
    assert fusion_table(A) == _full_scan_fusion_table(A)
    assert _verlinde_agrees(A)


_rank_modp = linalg.rank_modp


@pytest.mark.parametrize("patches, exact_spans", [
    ([], []),
    ([("rank_modp", lambda rows, p, target: _rank_modp(rows, p, target)
       - 1)], [8]),
    ([("row_modp", lambda row, p, w, n: None)], [8]),
], ids=["certified", "rank-one-short", "prime-divides-a-denominator"])
def test_smatrix_rank_falls_back_to_the_exact_path(double_s3, monkeypatch,
                                                   patches, exact_spans):
    A = _fresh_copy(double_s3)
    dual_index(A)     # everything smatrix reads but its own rank,
    drinfeld_map(A)   # built before Echelon is counted
    built = []

    class Counted(linalg.Echelon):
        def __init__(self, ncols, rows=()):
            built.append(ncols)
            super().__init__(ncols, rows)
    with monkeypatch.context() as m:
        m.setattr(linalg, "Echelon", Counted)
        for name, value in patches:
            m.setattr(linalg, name, value)
        assert smatrix(A).rank == 8
    assert built == exact_spans


def test_smatrix_rank_of_a_triangular_algebra_is_one(triangular_s3):
    # s_ij = d_i d_j: a rank below the bound min(r, r) = 3, which the
    # certificate cannot reach, so the exact path decides
    sm = smatrix(triangular_s3)
    assert len(sm.simples) == 3 and sm.rank == 1


def test_module_checked_on_generators_rejects_a_corrupted_non_generator(
        double_s3):
    # double the matrix of one basis element that is not a generator: the
    # products by generators still expose it, and the failure names the
    # algebra, the simple and the generator
    A = double_s3
    gens = set(generators(A))
    checked = 0
    for s in simple_objects(A):
        _verify_module(A, s)
        k = next((k for k in s.matrices if k not in gens), None)
        if k is None:
            continue
        bad = dict(s.matrices)
        bad[k] = tuple(tuple(v + v for v in row) for row in bad[k])
        with pytest.raises(InvariantViolation) as err:
            _verify_module(A, dataclasses.replace(s, matrices=bad))
        head, at = str(err.value).split(" at ")
        assert head == f"D(S3): module multiplicativity fails on V{s.index}"
        assert at in {A.labels[x] for x in gens}
        checked += 1
    assert checked == len(simple_objects(A))
