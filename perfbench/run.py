#!/usr/bin/env python3
"""The hopfcat benchmark: fresh-process workloads with a correctness gate.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

Each sample runs in fresh interpreters, one at a time (a closed loop
with one client), that import the checkout's ``src`` tree: the library
memoizes whole algebras per process, so a repeat inside one process
would measure nothing.  Samples repeat until ``--seconds`` is spent (at
least one).  Every stage call and CLI call is an op; its result's sha256
is compared with ``expected.json``, recorded from the seed commit, and
a mismatch, exception, nonzero exit or timeout counts as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, its
times scaled to a reference host speed that `HostClock` tracks while
the run measures.  ``--trace 1`` reports its per-layer metrics: stage
times from one untraced sample, then two traced samples run side by
side (one per core) whose exact call counts must agree, then the layer
probes.  The last stdout line is the JSON result; the lines before it
are the same figures for people, and one ``meta:`` line.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work" / str(os.getpid())

SETUP_PROBES = 5        # import-only interpreters before and after the samples
RUN_LIMIT_S = 170       # children still running then are killed: runs end in 180 s
CLI_GROUPS = ("S3", "D4")
CLI_COMMANDS = (("chartab",), ("double", "smatrix"), ("subcats", "lattice"),
                ("subcats", "list"))
CLI_WARM_PASSES = 6     # 48 warm calls: twelve beyond p75 in one session
STAGE_METRICS = (
    "hopf.build_double", "fusion.simple_objects", "fusion.fusion_table",
    "fusion.smatrix", "coideal.enumerate_coideals", "fusion.enumerate_subcats",
    "fusion.centralizer.smatrix", "fusion.centralizer.phi",
    "fusion.centralizer.classes", "verify.verify_identities")
CENTRALIZER_METHODS = ("smatrix", "phi", "classes")
SELF_TIME_MODULES = ("cyclo", "fractions", "linalg", "hopf", "groups",
                     "chartab", "reps", "coideal", "fusion", "verify",
                     "cache", "cli")


def subgroup_count(orders: tuple[int, ...]) -> int:
    """Number of subgroups of Z_n1 x ... x Z_nk, by closing under joins."""
    zero = tuple(0 for _ in orders)
    elems = list(itertools.product(*(range(n) for n in orders)))

    def span(gens) -> frozenset:
        seen, todo = {zero}, [zero]
        while todo:
            x = todo.pop()
            for g in gens:
                y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    subs = {span(())}
    fresh = set(subs)
    while fresh:
        fresh = {span(tuple(s) + (g,)) for s in fresh for g in elems} - subs
        subs |= fresh
    return len(subs)


# Fusion subcategory counts that the library must reproduce.  For abelian G,
# Rep D(G) is pointed with group G x G^, so its fusion subcategories are the
# subgroups of G x G (Naidu-Nikshych-Witherspoon, IMRN 2009).  D6's 52 is the
# count recorded for the nonabelian double.
ORACLE_SUBCATS = {
    "Z7": lambda: subgroup_count((7, 7)),
    "Z2xZ2": lambda: subgroup_count((2, 2, 2, 2)),
    "D6": lambda: 52,
}


# --- host speed -------------------------------------------------------------


def _burst() -> None:
    """Fixed stdlib-only work, about 10 ms; never code from src/."""
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i % 97, i) * Fraction(3, 7)
    d: dict = {}
    for i in range(6000):
        k = (i % 1013, i % 7)
        d[k] = d.get(k, 0) + i


class HostClock:
    """Tracks the speed of a shared host while workers run.

    The speed of this class of host drifts by up to a third over a few
    minutes as its neighbours' load changes, and a worker's wall time
    drifts with it.  A thread in the driver times `_burst` every
    `BURST_EVERY_S` on the other core (about a tenth of that core) for
    the whole run; a child's wall time times REF_BURST_S over the mean
    burst time while it ran is its wall time on a host where a burst
    takes REF_BURST_S, about the speed of the 2-vCPU host the benchmark
    was defined on.  The driver's own work is light, so the bursts see
    the host, not the driver.
    """

    REF_BURST_S = 0.010
    BURST_EVERY_S = 0.1
    MIN_BURSTS = 8          # short children borrow the nearest bursts

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            _burst()
            dt = time.perf_counter() - t0
            self.bursts.append((time.monotonic() - dt / 2, dt))
            self._stop.wait(self.BURST_EVERY_S)

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """REF_BURST_S over the mean burst time in [t0, t1]."""
        inside = [dt for t, dt in self.bursts if t0 <= t <= t1]
        if len(inside) < self.MIN_BURSTS:
            mid = (t0 + t1) / 2
            near = sorted(self.bursts, key=lambda b: abs(b[0] - mid))
            inside = [dt for _, dt in near[:self.MIN_BURSTS]]
        return self.REF_BURST_S / statistics.mean(inside)


# --- child processes --------------------------------------------------------


@dataclass
class Child:
    out: bytes
    rc: int
    wall: float
    rss_mb: float
    err: str
    timed_out: bool
    started: float          # time.monotonic() at spawn


class Run:
    """State shared by every child process of one benchmark run."""

    def __init__(self, seed: int, expected: dict | None = None):
        self.seed = seed
        self.expected = expected
        self.clock: HostClock | None = None
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()
        self._serial = itertools.count()

    def env(self, hash_seed: int) -> dict:
        env = dict(os.environ)
        env.pop("HOPFCAT_CACHE", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = str(hash_seed)
        return env

    def scratch(self, stem: str) -> Path:
        return WORK / f"{stem}-{next(self._serial)}"

    def spawn(self, argv: list[str], hash_seed: int) -> Child:
        """Run argv to completion; wall time from spawn, peak RSS via wait4."""
        timeout = max(1.0, self.started + RUN_LIMIT_S - time.monotonic())
        err_path = self.scratch("stderr")
        with open(err_path, "w+b") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env(hash_seed),
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace")
        err_path.unlink()
        return Child(out, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     err_text, wall >= timeout, t0)

    def norm_wall(self, child: Child) -> float:
        """A child's wall time at reference host speed (HostClock)."""
        if self.clock is None:
            return child.wall
        return child.wall * self.clock.factor(child.started,
                                              child.started + child.wall)

    def worker(self, job: dict, hash_seed: int | None = None):
        job = dict(job, spawned=time.monotonic())
        child = self.spawn([sys.executable, str(WORKER), json.dumps(job)],
                           self.seed if hash_seed is None else hash_seed)
        records = []
        for line in child.out.decode(errors="replace").splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                pass
        return records, child

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)


def _child_problem(child: Child) -> str:
    if child.timed_out:
        return "timed out"
    tail = child.err.strip().splitlines()[-1:] or [""]
    return f"exit {child.rc}: {tail[0]}"


@contextlib.contextmanager
def work_dir():
    """Scratch space for stderr files, caches and traces; removed on exit."""
    WORK.mkdir(parents=True)
    try:
        yield
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()   # only when no other run is using it


# --- samples ----------------------------------------------------------------


@dataclass
class Sample:
    wall: float = 0.0
    norm_wall: float = 0.0
    rss_mb: float = 0.0
    stages: Counter = field(default_factory=Counter)
    cold_s: float = 0.0
    warm: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def _check_stages(run: Run, group: str, records: list, child: Child) -> None:
    """Compare every stage result of one worker with the seed digests."""
    want = run.expected["stages"][group]
    got = {r["op"]: r for r in records if "op" in r and "i" not in r}
    for name, sha in want["ops"].items():
        run.attempt()
        rec = got.get(name)
        if rec is None:
            run.fail(f"{group} {name}: no result ({_child_problem(child)})")
        elif rec["sha"] != sha:
            run.fail(f"{group} {name}: result differs from the seed digest")
        elif name == "fusion.enumerate_subcats" and group in ORACLE_SUBCATS \
                and rec["count"] != ORACLE_SUBCATS[group]():
            run.fail(f"{group}: {rec['count']} subcategories, oracle says "
                     f"{ORACLE_SUBCATS[group]()}")
        elif name == "verify.verify_identities" and not rec["all_pass"]:
            run.fail(f"{group}: a verify check failed")
    cent = {(r["op"], r["i"]): r for r in records if "i" in r}
    for i, sha in enumerate(want.get("centralizer", ())):
        found = []
        for m in CENTRALIZER_METHODS:
            run.attempt()
            rec = cent.get((f"fusion.centralizer.{m}", i))
            if rec is None:
                run.fail(f"{group} centralizer {m} #{i}: no result "
                         f"({_child_problem(child)})")
            elif rec["sha"] != sha:
                run.fail(f"{group} centralizer {m} #{i}: differs from the "
                         "seed digest")
            else:
                found.append(rec["indices"])
        if any(f != found[0] for f in found):
            run.fail(f"{group} centralizer #{i}: the methods disagree")


def stage_workers(run: Run, sample: Sample, groups: tuple[str, ...], plan: str,
                  traced: bool = False, hash_seed: int | None = None) -> Sample:
    """One worker per group, in turn, each running the stages of plan."""
    for group in groups:
        job = {"kind": "stages", "group": group, "plan": plan,
               "seed": run.seed, "trace": traced}
        records, child = run.worker(job, hash_seed)
        _check_stages(run, group, records, child)
        sample.wall += child.wall
        sample.norm_wall += run.norm_wall(child)
        sample.rss_mb = max(sample.rss_mb, child.rss_mb)
        for r in records:
            if "op" in r:
                sample.stages[group, r["op"]] += r["s"]
            elif "trace" in r:
                sample.traces.append(r["trace"])
    return sample


def cli_session(run: Run, sample: Sample, traced: bool = False,
                hash_seed: int | None = None) -> Sample:
    """A cold pass of CLI calls into an empty cache, then warm passes."""
    cache_dir = run.scratch("cache")
    for n in range(1 + CLI_WARM_PASSES):
        for group, cmd in itertools.product(CLI_GROUPS, CLI_COMMANDS):
            args = [*cmd, "--group", group, "--format", "json",
                    "--cache", str(cache_dir)]
            if traced:
                trace_out = run.scratch("trace")
                job = {"kind": "cli", "argv": args, "trace_out": str(trace_out),
                       "spawned": time.monotonic()}
                argv = [sys.executable, str(WORKER), json.dumps(job)]
            else:
                argv = [sys.executable, "-m", "hopfcat.cli", *args]
            child = run.spawn(argv, run.seed if hash_seed is None else hash_seed)
            name = " ".join((*cmd, group))
            run.attempt()
            if child.rc != 0:
                run.fail(f"cli {name}: {_child_problem(child)}")
            elif (hashlib.sha256(child.out).hexdigest()
                  != run.expected["cli"][name]):
                run.fail(f"cli {name}: stdout differs from the seed digest")
            if traced and trace_out.exists():
                sample.traces.append(json.loads(trace_out.read_text()))
                trace_out.unlink()
            sample.wall += child.wall
            sample.norm_wall += run.norm_wall(child)
            sample.rss_mb = max(sample.rss_mb, child.rss_mb)
            if n == 0:
                sample.cold_s += child.wall
            else:
                sample.warm.append(child.wall)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return sample


# Why each workload exists is stated in BENCHMARK.json ("why").  Each sample
# joins two scenarios (the D6 and Z7 lattices; verify and a CLI session): on a
# shared machine a run is only as steady as the time it measures (README.md).
WORKLOADS = {
    "lattice": lambda run, **kw: stage_workers(
        run, Sample(), ("D6", "Z7"), "lattice", **kw),
    "verify-cli": lambda run, **kw: cli_session(
        run, stage_workers(run, Sample(), ("Z2xZ2", "D4"), "verify", **kw),
        **kw),
}


# --- metrics ----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_times(run: Run) -> list[tuple[float, float]]:
    """Spawn-to-`import hopfcat.cli` times of import-only interpreters,
    each as (raw, at reference host speed)."""
    out = []
    for _ in range(SETUP_PROBES):
        records, child = run.worker({"kind": "setup"})
        done = [r for r in records if r.get("done")]
        if child.rc != 0 or not done:
            raise SystemExit(f"error: a worker could not import hopfcat "
                             f"({_child_problem(child)})")
        raw = done[0]["setup_s"]
        out.append((raw, raw * run.clock.factor(child.started,
                                                child.started + raw)))
    return out


def end_to_end(run: Run, name: str, seconds: float):
    with HostClock() as run.clock:
        setup = setup_times(run)
        samples = []
        window = time.monotonic()
        while True:
            t0 = time.monotonic()
            samples.append(WORKLOADS[name](run))
            now = time.monotonic()
            if now - window + (now - t0) > seconds \
                    or now - run.started + (now - t0) > RUN_LIMIT_S:
                break
        setup += setup_times(run)
    metrics = {
        "wall_norm_s": statistics.median(s.norm_wall for s in samples),
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    counts = {"wall_norm_s": len(samples), "setup_s": len(setup),
              "peak_rss_mb": len(samples)}
    stages = Counter()
    for s in samples:
        stages.update(s.stages)
    bursts = [dt for _, dt in run.clock.bursts]
    notes = [f"raw wall: {statistics.median(s.wall for s in samples):.4f} s "
             f"per sample; raw setup: "
             f"{statistics.median(raw for raw, _ in setup):.4f} s; "
             f"host bursts: {len(bursts)}, mean {statistics.mean(bursts):.5f} s "
             f"(reference {HostClock.REF_BURST_S} s)"]
    notes += [f"stage {group} {op}: {t / len(samples):.4f} s per sample"
              for (group, op), t in sorted(stages.items())]
    warm = [t for s in samples for t in s.warm]
    if warm:
        notes += [f"cli cold pass: {statistics.median(s.cold_s for s in samples):.4f} s",
                  f"cli warm call p50 {percentile(warm, 50):.4f} s, "
                  f"p75 {percentile(warm, 75):.4f} s over {len(warm)} calls"]
    return metrics, counts, notes


def _merge(traces: list[dict]) -> dict:
    out = {"counts": Counter(), "times": Counter(), "self_s": Counter()}
    for t in traces:
        for k in out:
            out[k].update(t[k])
    return out


def per_layer(run: Run, name: str):
    ref = WORKLOADS[name](run)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(WORKLOADS[name], run, traced=True,
                               hash_seed=run.seed + k) for k in (1, 2)]
        traced = [f.result() for f in futures]
    a, b = (_merge(s.traces) for s in traced)
    mismatches = sorted(k for k in set(a["counts"]) | set(b["counts"])
                        if a["counts"][k] != b["counts"][k])
    notes = [f"stage {group} {op}: {t:.4f} s"
             for (group, op), t in sorted(ref.stages.items())]
    notes += [f"DEFECT: count {k} differs between traced runs: "
              f"{a['counts'][k]} vs {b['counts'][k]}" for k in mismatches]

    metrics = {f"{k}_s": sum(t for (_, op), t in ref.stages.items() if op == k)
               for k in STAGE_METRICS}
    # CLI processes are opaque to the stage timer; the tracer times them
    metrics["hopf.build_double_s"] += a["times"]["hopf.build_double_s"]
    metrics.update({f"{m}.self_s": a["self_s"][f"{m}.self_s"]
                    for m in SELF_TIME_MODULES})
    c = a["counts"]
    for k in ("cyclo.mul_calls", "cyclo.add_calls", "linalg.row_addmul_calls",
              "linalg.echelon_insert_calls", "hopf.mul_rows_calls",
              "hopf.convolve_calls", "coideal.build_coideal_calls",
              "fusion.dual_index_calls", "cache.hits", "cache.misses",
              "cache.bytes_written"):
        metrics[k] = c[k]
    metrics["linalg.echelon_insert_accept_ratio"] = (
        c["linalg.echelon_insert_accepted"] / c["linalg.echelon_insert_calls"]
        if c["linalg.echelon_insert_calls"] else 0.0)
    metrics["coideal.builds_per_coideal"] = (
        c["coideal.build_coideal_calls"] / c["fusion.subcats_enumerated"]
        if c["fusion.subcats_enumerated"] else 0.0)
    metrics["cache.get_s"] = a["times"]["cache.get_s"]
    metrics["cache.put_s"] = a["times"]["cache.put_s"]
    metrics["cli.cold_pass_s"] = ref.cold_s
    metrics["cli.warm_p50_s"] = percentile(ref.warm, 50) if ref.warm else 0.0
    metrics["cli.warm_p75_s"] = percentile(ref.warm, 75) if ref.warm else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.mean(s.wall for s in traced) / ref.wall)
    metrics["trace.count_mismatches"] = len(mismatches)

    records, child = run.worker({"kind": "probe", "seed": run.seed})
    probes = {r["op"]: r for r in records if "op" in r}
    for op, keys in (("probe.cyclo", ("cyclo.mul_us", "cyclo.add_us")),
                     ("probe.echelon", ("linalg.echelon_insert_us",)),
                     ("probe.mul_rows", ("hopf.mul_rows_us",))):
        run.attempt()
        rec = probes.get(op)
        if rec is None or not rec["ok"]:
            run.fail(f"{op}: {'wrong result' if rec else _child_problem(child)}")
        for k in keys:
            metrics[k] = rec[k] if rec else 0.0
    counts = dict.fromkeys(metrics, 1)
    counts["cli.warm_p50_s"] = counts["cli.warm_p75_s"] = len(ref.warm)
    return metrics, counts, notes


# --- entry point ------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():   # a checkout without git metadata
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """One workload; returns (result object, human-readable lines)."""
    run = Run(seed, json.loads((HERE / "expected.json").read_text()))
    load_before = os.getloadavg()
    if trace:
        values, counts, notes = per_layer(run, name)
    else:
        values, counts, notes = end_to_end(run, name, seconds)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = len(run.failures)
    meta = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "commit": _commit(),
            "src_sha256": _src_digest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "samples": counts,
            "ops_total": run.attempted,
            "ops_failed_frac": failed / max(run.attempted, 1)}
    lines = [f"[{name}] {m} = {v['value']:.6g} {v['unit']} "
             f"(n={counts[m]})" for m, v in metrics.items()]
    lines.append(f"[{name}] ops_failed_frac = {meta['ops_failed_frac']:.6g} "
                 f"of ops_total = {run.attempted}")
    lines += [f"[{name}] {n}" for n in notes]
    lines += [f"[{name}] FAILED: {f}" for f in run.failures]
    lines.append("meta: " + json.dumps(meta))
    result = {"correct": failed == 0, "attempted": max(run.attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, lines


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hopfcat" / "cli.py").is_file() \
            or not spec_path.is_file():
        print("error: run from a hopfcat checkout; src/hopfcat or "
              "BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with work_dir():
        for name in names:
            result, lines = measure(name, args.seed, args.seconds,
                                    bool(args.trace), spec)
            print("\n".join(lines), flush=True)
            results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
