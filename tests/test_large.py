"""The dimension-144 tier, deselected by default; run it with -m large."""

import pytest

from hopfcat import (build_double, centralizer, enumerate_subcats,
                     parse_group_spec, smatrix)
from hopfcat.coideal import enumerate_coideals, is_normal_hopf_subalgebra
from hopfcat.hopf import adjoint, apply_antipode, leg_slices, right_adjoint


@pytest.mark.large
@pytest.mark.parametrize("name, count", [("A4", 9), ("D6", 52), ("Z12", 90),
                                         ("Z2xZ6", 402)])
def test_subcats_and_centralizers(name, count):
    A = build_double(parse_group_spec(name))
    subs = enumerate_subcats(A)
    assert len(subs) == count
    for D in subs:
        got = {centralizer(A, D, m).indices
               for m in ("smatrix", "phi", "classes")}
        assert len(got) == 1, D.label()
    # the smatrix centralizer built the S-matrix; a double's is invertible
    sm = smatrix(A)
    assert sm.rank == len(sm.simples)


def _ad_stable_exhaustive(A, space):
    """Reference: stability under ad(x) for every basis element x."""
    return all(space.contains(adjoint(A, x, row))
               for row in space.rows for x in range(A.dim))


def _normal_exhaustive(A, L):
    """Reference: is_normal_hopf_subalgebra with both adjoint actions
    applied for every basis element, not only the generators."""
    space = L.space
    for row in space.rows:
        if not space.contains(apply_antipode(A, row)):
            return False
        left, right = leg_slices(A, row)
        if not all(space.contains(sl) for sl in left + right):
            return False
        for x in range(A.dim):
            if not (space.contains(adjoint(A, x, row))
                    and space.contains(right_adjoint(A, x, row))):
                return False
    return True


@pytest.mark.large
@pytest.mark.parametrize("name", ["A4", "D6"])
def test_generator_checks_match_exhaustive_loops(name):
    A = build_double(parse_group_spec(name))
    verdicts = set()
    # every cataloged coideal passed the generator-only adjoint check
    for L in enumerate_coideals(A):
        assert _ad_stable_exhaustive(A, L.space), L.label()
        normal = is_normal_hopf_subalgebra(A, L)
        assert normal == _normal_exhaustive(A, L), L.label()
        verdicts.add(normal)
    assert verdicts == {True, False}
