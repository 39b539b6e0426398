import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcat import chartab, linalg
from hopfcat.chartab import CharacterTable, character_table
from hopfcat.cyclo import CycloNumber, as_cyclo
from hopfcat.errors import InvariantViolation
from hopfcat.groups import parse_group_spec

CATALOG = ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6", "S3", "D4", "Q8"]


def test_row_and_column_orthogonality():
    for name in CATALOG:
        G = parse_group_spec(name)
        t = character_table(G)
        sizes = [c.size for c in t.classes]
        r = t.r
        for i in range(r):
            for j in range(r):
                tot = sum((as_cyclo(sizes[k]) * t.rows[i][k]
                           * t.rows[j][k].conjugate() for k in range(r)),
                          as_cyclo(0))
                assert tot == (G.n if i == j else 0), (name, i, j)
        # column orthogonality
        for k in range(r):
            for m in range(r):
                tot = sum((t.rows[i][k] * t.rows[i][m].conjugate()
                           for i in range(r)), as_cyclo(0))
                want = G.n // sizes[k] if k == m else 0
                assert tot == want, (name, k, m)


def test_degrees():
    expect = {
        "Z1": [1], "Z2": [1, 1], "Z3": [1, 1, 1], "Z4": [1, 1, 1, 1],
        "Z2xZ2": [1, 1, 1, 1], "Z6": [1] * 6,
        "S3": [1, 1, 2], "D4": [1, 1, 1, 1, 2], "Q8": [1, 1, 1, 1, 2],
    }
    for name, degs in expect.items():
        t = character_table(parse_group_spec(name))
        assert sorted(t.degrees) == sorted(degs), name
        assert sum(d * d for d in t.degrees) == t.group.n


def test_s3_table_frozen():
    t = character_table(parse_group_spec("S3"))
    # classes ordered {e}, reflections, rotations
    assert [set(c.members) for c in t.classes] == [{0}, {1, 2, 5}, {3, 4}]
    one = CycloNumber.rational(1)
    expected = [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
    got = {tuple(v.key(6) for v in row) for row in t.rows}
    want = {tuple((one * v).key(6) for v in row) for row in expected}
    assert got == want


def test_z3_table_has_cube_roots():
    t = character_table(parse_group_spec("Z3"))
    z = CycloNumber.zeta(3, 1)
    values = {v.key(3) for row in t.rows for v in row}
    assert z.key(3) in values and (z * z).key(3) in values


def test_exponent_field():
    assert character_table(parse_group_spec("Q8")).N == 4
    assert character_table(parse_group_spec("S3")).N == 6
    assert character_table(parse_group_spec("Z6")).N == 6


def test_dual_rows():
    t = character_table(parse_group_spec("Z3"))
    # nontrivial characters of Z3 are swapped by duality
    d = t.dual_row
    assert d[0] == 0 and d[1] != 1 and d[d[1]] == 1
    tq = character_table(parse_group_spec("Q8"))
    assert tq.dual_row == list(range(5))  # all self-dual


def test_value_at():
    t = character_table(parse_group_spec("S3"))
    two_dim = t.degrees.index(2)
    assert t.value_at(two_dim, 0) == 2
    assert t.value_at(two_dim, 1) == 0
    assert t.value_at(two_dim, 3) == -1


def test_bad_rows_rejected():
    G = parse_group_spec("Z2")
    one = CycloNumber.rational(1)
    with pytest.raises(InvariantViolation,
                       match=r"^Z2: orthogonality fails on rows 0,1$"):
        CharacterTable(G, [[one, one], [one, one]])
    with pytest.raises(InvariantViolation,
                       match=r"^Z2: one row per class fails on 1 rows for 2 "
                             r"classes$"):
        CharacterTable(G, [[one, one]])
    half = CycloNumber.rational(Fraction(1, 2))
    with pytest.raises(InvariantViolation,
                       match=r"^Z2: positive integer degrees fails$"):
        CharacterTable(G, [[one, one], [half, -half]])


def test_chartab_defines_no_modp_helper_of_its_own():
    """The F_p kernel lives in linalg; chartab only imports it, and
    builds its field through linalg's one constructor, _field."""
    tree = ast.parse(Path(chartab.__file__).read_text())
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    helpers = {"is_prime", "find_prime", "prime_factors",
               "primitive_root_of_unity", "rref_modp", "kernel_modp",
               "field", "Field"}
    assert not defined & (helpers | {"_" + h for h in helpers})
    for name in ("_field", "rref_modp", "kernel_modp"):
        assert getattr(chartab, name) is getattr(linalg, name)
    for name in ("find_prime", "primitive_root_of_unity"):
        assert not hasattr(chartab, name)


def test_verify_failure_names_its_group(monkeypatch):
    """A conjugation that fixes every value breaks the table of Z3, whose
    characters take the non-real values zeta_3 and zeta_3^2."""
    monkeypatch.setattr(CycloNumber, "conjugate", lambda self: self)
    with pytest.raises(InvariantViolation,
                       match=r"^Z3: conjugate/inverse agreement fails on "
                             r"row 1, class "):
        character_table(parse_group_spec("Z3"))


def test_modular_failure_names_its_group(monkeypatch):
    """With every class matrix the identity, no eigenvalue splits the
    class functions of S3 apart; the error names the group."""
    G = parse_group_spec("S3")
    r = len(G.conjugacy_classes())
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    monkeypatch.setattr(chartab, "_class_matrices",
                        lambda G: [identity] * r)
    with pytest.raises(InvariantViolation,
                       match=r"^S3: separation of the characters mod p "
                             r"fails$"):
        character_table(G)


def test_chartab_field_refuses_a_non_primitive_root(monkeypatch):
    """chartab's root of unity is the field's, checked when the field is
    built: a cube root of unity offered for S3, whose exponent is 6, is
    refused before any character is lifted."""
    G = parse_group_spec("S3")
    p = linalg.find_prime(6, G.n)
    w = linalg.primitive_root_of_unity(p, 6)
    bad = pow(w, 2, p)
    monkeypatch.setattr(linalg, "primitive_root_of_unity", lambda p, n: bad)
    linalg._field.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match=(
                rf"^F_{p}: primitive 6-th root of unity fails on w = {bad}$")):
            character_table(G)
    finally:
        linalg._field.cache_clear()
