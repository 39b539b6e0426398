"""Golden digests of the CLI's printed output.

tests/golden/cli.json holds, per (group, command, format), the sha256 of
what ``hopfcat <command> --group <group> --format <format>`` prints on
stdout: the labels, dimensions, integrals, fusion rules and centralizer
verdicts, both through the JSON emitter and through the text renderers.
Regenerate it with ``PYTHONPATH=src python tests/test_cli_golden.py``
only when a change of that output is intended.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from hopfcat.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
COMMANDS = (("double", "irreps"), ("double", "fusion"),
            ("coideals", "list"), ("coideals", "integral"),
            ("subcats", "list"), ("centralizer", "--all"))
CASES = [(group, command, fmt) for group in ("S3", "D4")
         for command in COMMANDS for fmt in ("text", "json")]


def _key(group: str, command: tuple[str, str], fmt: str) -> str:
    return f"{group} {' '.join(command)} {fmt}"


def stdout_digest(group: str, command: tuple[str, str], fmt: str) -> str:
    """The sha256 of the stdout of one CLI call, run on a new cache."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as cache, \
            contextlib.redirect_stdout(out):
        code = run([*command, "--group", group, "--format", fmt,
                    "--cache", cache])
    assert code == 0, _key(group, command, fmt)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("group, command, fmt", CASES,
                         ids=[_key(*case) for case in CASES])
def test_cli_stdout_digests(group, command, fmt):
    want = json.loads(GOLDEN.read_text())[_key(group, command, fmt)]
    assert stdout_digest(group, command, fmt) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_key(*case): stdout_digest(*case) for case in CASES},
        indent=1) + "\n")
