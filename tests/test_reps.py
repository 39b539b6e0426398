import pytest

from hopfcat import reps
from hopfcat.chartab import character_table
from hopfcat.cyclo import CycloNumber, as_cyclo
from hopfcat.errors import InvariantViolation
from hopfcat.fusion import _induced_simples
from hopfcat.groups import all_subgroups, parse_group_spec
from hopfcat.hopf import build_double
from hopfcat.reps import linear_characters, mat_mul, matrix_irrep


def _trace(m):
    return sum((m[i][i] for i in range(len(m))), as_cyclo(0))


def test_all_subgroups_counts():
    counts = {"Z1": 1, "Z2": 2, "Z4": 3, "Z2xZ2": 5, "S3": 6, "D4": 10, "Q8": 6}
    for name, cnt in counts.items():
        G = parse_group_spec(name)
        subs = all_subgroups(G)
        assert len(subs) == cnt, name
        orders = {s.order for s in subs}
        assert 1 in orders and G.n in orders
        for s in subs:
            assert G.n % s.order == 0  # Lagrange


def test_linear_characters_counts():
    # number of linear characters = order of abelianization
    for name, cnt in {"S3": 2, "D4": 4, "Q8": 4, "Z6": 6}.items():
        G = parse_group_spec(name)
        chars = linear_characters(G)
        assert len(chars) == cnt, name
        for chi in chars:
            assert chi[0] == 1
            for a in range(G.n):
                for b in range(G.n):
                    assert chi[G.mul(a, b)] == chi[a] * chi[b]


def test_matrix_irrep_is_homomorphism():
    for name in ("S3", "D4", "Q8"):
        G = parse_group_spec(name)
        t = character_table(G)
        for i in range(t.r):
            mats = matrix_irrep(G, t, i)
            d = t.degrees[i]
            ident = tuple(tuple(as_cyclo(1 if r == c else 0)
                                for c in range(d)) for r in range(d))
            assert mats[0] == ident
            for a in range(G.n):
                for b in range(G.n):
                    assert mat_mul(mats[a], mats[b]) == mats[G.mul(a, b)], \
                        (name, i, a, b)


def test_matrix_irrep_has_right_character():
    G = parse_group_spec("Q8")
    t = character_table(G)
    for i in range(t.r):
        mats = matrix_irrep(G, t, i)
        for g in range(G.n):
            assert _trace(mats[g]) == t.value_at(i, g)


def test_mat_mul():
    one = as_cyclo(1)
    z = CycloNumber.zeta(4, 1)
    a = ((one, z), (as_cyclo(0), one))
    b = ((one, as_cyclo(0)), (z, one))
    ab = mat_mul(a, b)
    assert ab == ((one + z * z, z), (z, one))


def test_matrix_irrep_failure_names_its_group(monkeypatch):
    G = parse_group_spec("S3")
    t = character_table(G)
    i = t.degrees.index(2)
    monkeypatch.setattr(reps, "mat_mul", lambda a, b: a)
    with pytest.raises(InvariantViolation,
                       match=r"^S3: group law fails on matrices of "
                             rf"character {i} at \(0,"):
        matrix_irrep(G, t, i)


def test_centralizer_table_failure_names_the_double_group(monkeypatch):
    """The character table of a centralizer in D(Z3) is built on a group
    named after its class and Z3, so its failure says where it came from."""
    A = build_double(parse_group_spec("Z3"))
    monkeypatch.setattr(CycloNumber, "conjugate", lambda self: self)
    with pytest.raises(InvariantViolation,
                       match=r"^cent1ofZ3: conjugate/inverse agreement fails"):
        _induced_simples(A, 1, A.group.conjugacy_classes()[1].representative,
                         3)
