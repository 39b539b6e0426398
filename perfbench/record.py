#!/usr/bin/env python3
"""Write perfbench/expected.json: the sha256 of every result the benchmark
checks, taken from the current tree.

Run it only at a commit whose outputs are trusted; the file in the repo
was recorded at the seed commit, before any optimisation.  Usage, from
the root of a checkout::

    python3 perfbench/record.py
"""

import hashlib
import itertools
import json
import sys

from run import CLI_COMMANDS, CLI_GROUPS, HERE, Run, _child_problem, work_dir

STAGE_JOBS = (("Z2xZ2", "verify"), ("D4", "verify"), ("D6", "lattice"),
              ("Z7", "lattice"))


def main() -> int:
    expected = {"stages": {}, "cli": {}}
    with work_dir():
        for group, plan in STAGE_JOBS:
            # a Run per job: each gets the full per-run time limit
            records, child = Run(0).worker({"kind": "stages", "group": group,
                                            "plan": plan, "seed": 0})
            if child.rc != 0:
                sys.exit(f"{group}: {_child_problem(child)}")
            if any(r.get("all_pass") is False for r in records):
                sys.exit(f"{group}: a verify check failed")
            entry = {"ops": {r["op"]: r["sha"] for r in records
                             if "op" in r and "i" not in r}}
            if plan == "lattice":
                by_subcat: dict = {}
                for r in records:
                    if "i" in r:
                        by_subcat.setdefault(r["i"], set()).add(r["sha"])
                if any(len(v) != 1 for v in by_subcat.values()):
                    sys.exit(f"{group}: the centralizer methods disagree")
                entry["centralizer"] = [by_subcat[i].pop()
                                        for i in sorted(by_subcat)]
            expected["stages"][group] = entry
        run = Run(0)
        cache_dir = run.scratch("cache")
        for group, cmd in itertools.product(CLI_GROUPS, CLI_COMMANDS):
            argv = [sys.executable, "-m", "hopfcat.cli", *cmd, "--group", group,
                    "--format", "json", "--cache", str(cache_dir)]
            cold, warm = run.spawn(argv, 0), run.spawn(argv, 0)
            if cold.rc or warm.rc or cold.out != warm.out:
                sys.exit(f"cli {cmd} {group}: failed or not byte-identical "
                         "from the cache")
            name = " ".join((*cmd, group))
            expected["cli"][name] = hashlib.sha256(cold.out).hexdigest()
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
