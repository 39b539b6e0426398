"""The dimension-144 tier, deselected by default; run it with -m large."""

import pytest

from hopfcat import (build_double, centralizer, enumerate_subcats,
                     parse_group_spec)


@pytest.mark.large
@pytest.mark.parametrize("name, count", [("A4", 9), ("D6", 52)])
def test_subcats_and_centralizers(name, count):
    A = build_double(parse_group_spec(name))
    subs = enumerate_subcats(A)
    assert len(subs) == count
    for D in subs:
        got = {centralizer(A, D, m).indices
               for m in ("smatrix", "phi", "classes")}
        assert len(got) == 1, D.label()
