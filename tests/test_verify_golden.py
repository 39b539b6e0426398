"""Golden digests of full verify reports.

tests/golden/verify.json holds, per algebra, the sha256 of
``json.dumps(verify_identities(A, "full"), sort_keys=True)``: every
check's subjects, verdicts and details, so a change in how a check is
computed that alters any of them shows here.  Regenerate it with
``PYTHONPATH=src python tests/test_verify_golden.py`` only when a change
of those reports is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hopfcat import build_double, build_triangular, parse_group_spec
from hopfcat.verify import verify_identities

GOLDEN = Path(__file__).parent / "golden" / "verify.json"
# (algebra name, builder, group)
SMALL = (("D(S3)", build_double, "S3"), ("D(Z2xZ2)", build_double, "Z2xZ2"),
         ("D(Q8)", build_double, "Q8"), ("D(D4)", build_double, "D4"),
         ("k[S3]", build_triangular, "S3"))
LARGE = (("D(A4)", build_double, "A4"), ("D(D6)", build_double, "D6"),
         ("D(Z7)", build_double, "Z7"), ("D(Z12)", build_double, "Z12"))


def report_digest(build, group: str) -> str:
    """The sha256 of the full verify report of build(group)."""
    report = verify_identities(build(parse_group_spec(group)), "full")
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def _check(name: str, build, group: str) -> None:
    want = json.loads(GOLDEN.read_text())[name]
    assert report_digest(build, group) == want


@pytest.mark.parametrize("name, build, group", SMALL)
def test_verify_digests(name, build, group):
    _check(name, build, group)


@pytest.mark.large
@pytest.mark.parametrize("name, build, group", LARGE)
def test_verify_digests_large(name, build, group):
    _check(name, build, group)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: report_digest(build, group)
         for name, build, group in SMALL + LARGE}, indent=1) + "\n")
