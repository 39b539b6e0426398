"""Golden digests of every coideal of six doubles.

tests/golden/coideals.json holds, per double and in catalog order, the
sha256 of each coideal's label, dimension, integral and the reduced rows
of (A//L)*, every value written by CycloNumber.to_json: the stored order
of a value depends on the operations that built it, so a change in how a
coideal or its quotient dual is computed shows here even when the spaces
are equal.  Regenerate it with ``PYTHONPATH=src python
tests/test_coideal_golden.py`` only when a change of those outputs is
intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hopfcat import build_double, parse_group_spec
from hopfcat.coideal import enumerate_coideals, quotient_dual

GOLDEN = Path(__file__).parent / "golden" / "coideals.json"
SMALL = ("S3", "D4", "Q8")
LARGE = ("A4", "Z12", "Z2xZ6")


def _row_json(row) -> list:
    return [[k, v.to_json()] for k, v in sorted(row.items())]


def coideal_digests(name: str) -> list[str]:
    """One sha256 per coideal of D(name), in the order of the catalog."""
    A = build_double(parse_group_spec(name))
    out = []
    for L in enumerate_coideals(A):
        record = [L.label(), L.dim, _row_json(L.integral),
                  [_row_json(r) for r in quotient_dual(A, L).rows]]
        blob = json.dumps(record, separators=(",", ":")).encode()
        out.append(hashlib.sha256(blob).hexdigest())
    return out


def _check(name: str) -> None:
    want = json.loads(GOLDEN.read_text())[name]
    assert coideal_digests(name) == want


@pytest.mark.parametrize("name", SMALL)
def test_coideal_digests(name):
    _check(name)


@pytest.mark.large
@pytest.mark.parametrize("name", LARGE)
def test_coideal_digests_large(name):
    _check(name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: coideal_digests(name) for name in SMALL + LARGE},
        indent=1) + "\n")
