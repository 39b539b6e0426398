"""One fresh interpreter of the hopfcat benchmark.

Run as ``python3 perfbench/worker.py '<job json>'`` from the root of a
checkout; ``perfbench/run.py`` starts it, one at a time.  The worker
imports the checkout's ``src`` tree, times ``import hopfcat.cli`` from
the moment the parent spawned it, runs its job and prints one JSON
object per line on stdout:

* ``setup``  -- import only;
* ``stages`` -- the public stage functions on one double, one line per
  call with its wall time and the sha256 of its result;
* ``probe``  -- the layer micro-probes on seed-generated operands;
* ``cli``    -- ``hopfcat.cli.run`` under the tracer, with the CLI's own
  stdout untouched and the trace written to a file.

With ``"trace": true`` the job runs under `Tracer`: a SIGPROF sampler
for self time per module, and thin counting wrappers on the functions
whose call counts the benchmark reports.
"""

import json
import sys
import time

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hopfcat.cli  # noqa: E402  (the import whose cost setup_s measures)

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

# Modules whose self time is reported; anything else counts as "other".
LAYERS = ("cyclo", "linalg", "hopf", "groups", "chartab", "reps", "coideal",
          "fusion", "verify", "cache", "cli")
SAMPLE_INTERVAL_S = 0.001


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


class Tracer:
    """Per-module self time by sampling, exact counts by wrapping.

    The sampler attributes each SIGPROF tick (one per millisecond of
    process CPU time) to the module of the innermost Python frame, so a
    module's self time is its share of ticks times the CPU time traced.
    The wrappers replace a function in every ``hopfcat`` module that
    binds it, so ``from .hopf import mul_rows`` call sites count too.
    """

    def __init__(self, time_builds: bool):
        import hopfcat.cache as cache
        import hopfcat.coideal as coideal
        import hopfcat.cyclo as cyclo
        import hopfcat.fusion as fusion
        import hopfcat.hopf as hopf
        import hopfcat.linalg as linalg

        self.cells: dict[str, list] = {}
        self.times = Counter()
        self.ticks = Counter()
        times = self.times

        def cell(key: str) -> list:
            return self.cells.setdefault(key, [0])

        def counted(fn, key):
            n = cell(key)

            def wrapper(*args):
                n[0] += 1
                return fn(*args)
            return wrapper

        def counted3(fn, key):
            # fixed arity: these run millions of times, and *args costs more
            # than the counting itself
            n = cell(key)

            def wrapper(x, y, z):
                n[0] += 1
                return fn(x, y, z)
            return wrapper

        def binary(fn, key):
            n = cell(key)

            def wrapper(x, y):
                n[0] += 1
                return fn(x, y)
            return wrapper

        def timed(fn, key):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[key] += time.perf_counter() - t0
            return wrapper

        inserts = cell("linalg.echelon_insert_calls")
        accepted = cell("linalg.echelon_insert_accepted")

        def insert(ech, row):
            inserts[0] += 1
            grew = orig_insert(ech, row)
            accepted[0] += grew
            return grew

        subcats_seen = cell("fusion.subcats_enumerated")

        def subcats(A):
            out = orig_subcats(A)
            if id(A) not in seen_algebras:
                seen_algebras.add(id(A))
                subcats_seen[0] += len(out)
            return out

        hits, misses = cell("cache.hits"), cell("cache.misses")
        written = cell("cache.bytes_written")

        def cache_get(rc, key):
            t0 = time.perf_counter()
            hit = orig_get(rc, key)
            times["cache.get_s"] += time.perf_counter() - t0
            (hits if hit is not None else misses)[0] += 1
            return hit

        def cache_put(rc, key, value):
            t0 = time.perf_counter()
            orig_put(rc, key, value)
            times["cache.put_s"] += time.perf_counter() - t0
            written[0] += rc._path(key).stat().st_size

        orig_insert = linalg.Echelon.insert
        orig_subcats = fusion.enumerate_subcats
        orig_get, orig_put = cache.ResultCache.get, cache.ResultCache.put
        seen_algebras: set = set()
        C = cyclo.CycloNumber
        self._methods = [
            (C, "__mul__", binary(C.__mul__, "cyclo.mul_calls")),
            (C, "__rmul__", binary(C.__rmul__, "cyclo.mul_calls")),
            (C, "__add__", binary(C.__add__, "cyclo.add_calls")),
            (C, "__radd__", binary(C.__radd__, "cyclo.add_calls")),
            (linalg.Echelon, "insert", insert),
            (cache.ResultCache, "get", cache_get),
            (cache.ResultCache, "put", cache_put),
        ]
        self._functions = [
            (linalg.row_addmul, counted3(linalg.row_addmul,
                                         "linalg.row_addmul_calls")),
            (hopf.mul_rows, counted3(hopf.mul_rows, "hopf.mul_rows_calls")),
            (hopf.convolve, counted3(hopf.convolve, "hopf.convolve_calls")),
            (coideal.build_coideal, counted(coideal.build_coideal,
                                            "coideal.build_coideal_calls")),
            (fusion.dual_index, counted(fusion.dual_index,
                                        "fusion.dual_index_calls")),
            (orig_subcats, subcats),
        ]
        if time_builds:
            self._functions.append((hopf.build_double, timed(
                hopf.build_double, "hopf.build_double_s")))
        self._undo = []

    def _on_tick(self, signum, frame):
        name = frame.f_globals.get("__name__", "") if frame else ""
        if name.startswith("hopfcat."):
            name = name[len("hopfcat."):]
        self.ticks[name if name in LAYERS or name == "fractions"
                   else "other"] += 1

    def start(self) -> None:
        for cls, attr, wrapper in self._methods:
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        for orig, wrapper in self._functions:
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("hopfcat"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self._cpu0 = time.process_time()
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.process_time() - self._cpu0
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        total = sum(self.ticks.values()) or 1
        self_s = {f"{m}.self_s": cpu * n / total for m, n in self.ticks.items()}
        counts = {k: n for k, (n,) in self.cells.items()}
        return {"counts": counts, "times": dict(self.times), "self_s": self_s}


# --- stage jobs -------------------------------------------------------------


def _stage(name, fn, view, extra=None):
    """Call one stage, emit its time and result digest, return its result."""
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    record = {"op": name, "s": dt, "sha": digest(view(result))}
    if extra:
        record.update(extra(result))
    emit(record)
    return result


def run_stages(job: dict) -> None:
    from hopfcat import (build_double, centralizer, enumerate_coideals,
                         enumerate_subcats, parse_group_spec, smatrix,
                         verify_identities)
    from hopfcat.fusion import fusion_table, simple_objects

    G = parse_group_spec(job["group"])
    A = _stage("hopf.build_double", lambda: build_double(G),
               lambda A: A.to_json())
    _stage("fusion.simple_objects", lambda: simple_objects(A),
           lambda ss: [[s.label(), s.dim] for s in ss])
    _stage("fusion.fusion_table", lambda: fusion_table(A), lambda t: t)
    _stage("fusion.smatrix", lambda: smatrix(A),
           lambda S: {"entries": [[x.to_json() for x in row]
                                  for row in S.entries],
                      "dual": S.dual, "rank": S.rank,
                      "phi_relation": S.phi_relation})
    _stage("coideal.enumerate_coideals", lambda: enumerate_coideals(A),
           lambda cs: [[L.label(), L.dim,
                        sorted([k, v.to_json()] for k, v in L.integral.items())]
                       for L in cs],
           lambda cs: {"count": len(cs)})
    subs = _stage("fusion.enumerate_subcats", lambda: enumerate_subcats(A),
                  lambda ds: [[D.label(), list(D.indices), D.fpdim]
                              for D in ds],
                  lambda ds: {"count": len(ds)})
    if job["plan"] == "verify":
        _stage("verify.verify_identities",
               lambda: verify_identities(A, "full", seed=job["seed"]),
               lambda report: report,
               lambda report: {"all_pass": all(c["pass"]
                                               for c in report["checks"])})
        return
    for method in ("smatrix", "phi", "classes"):
        for i, D in enumerate(subs):
            _stage(f"fusion.centralizer.{method}",
                   lambda: centralizer(A, D, method),
                   lambda C: list(C.indices),
                   lambda C: {"i": i, "indices": list(C.indices)})


# --- layer probes -----------------------------------------------------------


def _per_call_us(fn, calls: int, repeats: int) -> float:
    """Median over repeats of the wall time of fn() per call, in µs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def run_probes(seed: int) -> None:
    from hopfcat import build_double, parse_group_spec
    from hopfcat.cyclo import CycloNumber
    from hopfcat.hopf import mul_rows
    from hopfcat.linalg import Echelon

    rng = random.Random(seed)

    def rand_cyclo(order: int, terms: int) -> CycloNumber:
        while True:
            x = CycloNumber.rational(0)
            for e in rng.sample(range(order), terms):
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                x = x + CycloNumber.rational(q) * CycloNumber.zeta(order, e)
            if x:
                return x

    def rand_row(ncols: int, nnz: int, order: int) -> dict:
        return {j: rand_cyclo(order, 2) for j in rng.sample(range(ncols), nnz)}

    pairs = [(rand_cyclo(12, 4), rand_cyclo(12, 4)) for _ in range(200)]
    ok = all(a * b == b * a and (a + b) - b == a for a, b in pairs[:20])
    mul_us = _per_call_us(lambda: [a * b for a, b in pairs], len(pairs), 7)
    add_us = _per_call_us(lambda: [a + b for a, b in pairs], len(pairs), 7)
    emit({"op": "probe.cyclo", "ok": ok,
          "cyclo.mul_us": mul_us, "cyclo.add_us": add_us})

    rows = [rand_row(16, 3, 12) for _ in range(10)]

    def fill() -> Echelon:
        ech = Echelon(16)
        for r in rows:
            ech.insert(r)
        return ech

    ech = fill()
    ok = all(ech.contains(r) for r in rows)
    emit({"op": "probe.echelon", "ok": ok,
          "linalg.echelon_insert_us": _per_call_us(fill, len(rows), 5)})

    A = build_double(parse_group_spec("S3"))
    rows = [rand_row(A.dim, 6, 3) for _ in range(60)]
    triples = list(zip(rows[0::3], rows[1::3], rows[2::3]))
    ok = all(mul_rows(A, mul_rows(A, a, b), c) == mul_rows(A, a, mul_rows(A, b, c))
             for a, b, c in triples[:5])
    calls = [(a, b) for a, b, _ in triples] + [(b, c) for _, b, c in triples]
    emit({"op": "probe.mul_rows", "ok": ok,
          "hopf.mul_rows_us": _per_call_us(
              lambda: [mul_rows(A, a, b) for a, b in calls], len(calls), 7)})


# --- entry point ------------------------------------------------------------


def main() -> int:
    job = json.loads(sys.argv[1])
    setup_s = IMPORTED - job["spawned"]
    kind = job["kind"]
    if kind == "cli":
        tracer = Tracer(time_builds=True)
        tracer.start()
        try:
            rc = hopfcat.cli.run(job["argv"])
        finally:
            sys.stdout.flush()
            Path(job["trace_out"]).write_text(json.dumps(tracer.stop()))
        return rc
    # stage jobs time build_double themselves, untraced
    tracer = Tracer(time_builds=False) if job.get("trace") else None
    if tracer:
        tracer.start()
    if kind == "stages":
        run_stages(job)
    elif kind == "probe":
        run_probes(job["seed"])
    elif kind != "setup":
        raise ValueError(f"unknown job kind {kind!r}")
    done = {"done": True, "setup_s": setup_s}
    if tracer:
        done["trace"] = tracer.stop()
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
