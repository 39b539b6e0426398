import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcat
from hopfcat import (build_double, centralizer, enumerate_coideals,
                     enumerate_subcats)
from hopfcat.cli import _lattice_payload, parse_triple, run
from hopfcat.cyclo import CycloNumber
from hopfcat.errors import BoundExceeded, ParseError
from hopfcat.groups import check_double_dim, parse_group_spec


def _run(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_group_info_json(tmp_path, capsys):
    code, out, _ = _run(capsys, "group", "info", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6 and not obj["abelian"]
    assert obj["exponent"] == 6
    assert [set(c["members"]) for c in obj["classes"]] == \
        [{0}, {1, 2, 5}, {3, 4}]


def test_group_info_text(tmp_path, capsys):
    code, out, _ = _run(capsys, "group", "info", "--group", "Q8",
                        "--cache", str(tmp_path))
    assert code == 0
    assert "order" in out and "8" in out


def test_group_info_refuses_above_the_normal_subgroup_bound(tmp_path,
                                                            capsys):
    # Z30 passes the group-order bound but not NORMAL_SUBGROUP_BOUND = 24
    code, out, err = _run(capsys, "group", "info", "--group", "Z30",
                          "--cache", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: normal subgroup enumeration limited to order 24"]


def test_chartab(tmp_path, capsys):
    code, out, _ = _run(capsys, "chartab", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj["degrees"]) == [1, 1, 2]


def test_double_smatrix(tmp_path, capsys):
    code, out, _ = _run(capsys, "double", "smatrix", "--group", "Z2",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 4
    assert obj["dims"] == [1, 1, 1, 1]


def test_double_irreps_and_fusion(tmp_path, capsys):
    code, out, _ = _run(capsys, "double", "irreps", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    simples = json.loads(out)
    assert sorted(s["dim"] for s in simples) == [1, 1, 2, 2, 2, 2, 3, 3]
    code, out, _ = _run(capsys, "double", "fusion", "--group", "Z2",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["nonzero"]) == 16  # pointed: one product per pair
    assert all(n == 1 for _, _, _, n in obj["nonzero"])


def test_coideals_list(tmp_path, capsys):
    code, out, _ = _run(capsys, "coideals", "list", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 8
    assert sorted(r["dim"] for r in recs) == [1, 2, 6, 6, 6, 6, 18, 36]


def test_coideals_integral_with_triple(tmp_path, capsys):
    code, out, _ = _run(capsys, "coideals", "integral", "--group", "S3",
                        "--triple", "M=3,H=3,B=triv",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1
    assert recs[0]["dim"] == 6 and recs[0]["integral"]


def test_subcats_list_and_dot(tmp_path, capsys):
    code, out, _ = _run(capsys, "subcats", "list", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    recs = json.loads(out)
    assert [r["fpdim"] for r in recs] == [1, 2, 6, 6, 6, 6, 18, 36]
    code, out, _ = _run(capsys, "subcats", "lattice", "--group", "S3",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["nodes"]) == 8 and obj["covers"] and obj["centralizer_pairs"]
    code, out, _ = _run(capsys, "subcats", "lattice", "--group", "S3",
                        "--format", "dot", "--cache", str(tmp_path))
    assert code == 0
    assert out.startswith("digraph subcats {")
    assert "->" in out and "color=red" in out


def test_centralizer_all(tmp_path, capsys):
    code, out, _ = _run(capsys, "centralizer", "--group", "Z4", "--all",
                        "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 15
    assert all(r["agree"] for r in recs)


def test_centralizer_triple(tmp_path, capsys):
    code, out, _ = _run(capsys, "centralizer", "--group", "S3",
                        "--triple", "M=3,H=3,B=triv",
                        "--cache", str(tmp_path))
    assert code == 0
    assert "ok" in out


def test_centralizer_needs_target(tmp_path, capsys):
    code, _, err = _run(capsys, "centralizer", "--group", "S3",
                        "--cache", str(tmp_path))
    assert code == 2
    assert "triple" in err


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = _run(capsys, "verify", "--group", "Z2",
                        "--suite", "smoke", "--cache", str(tmp_path))
    assert code == 0
    assert "ok" in out and "FAIL" not in out


def test_verify_dim_bound_refused(tmp_path, capsys):
    # verify refuses a double over the bound as the data commands do
    for argv in (("--group", "D4", "--max-dim", "10", "--format", "json"),
                 ("--group", "Z13")):
        code, out, err = _run(capsys, "verify", *argv,
                              "--cache", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("error: double of ") and err.count("\n") == 1


def test_data_command_bound_exceeded(tmp_path, capsys):
    code, _, err = _run(capsys, "double", "smatrix", "--group", "D4",
                        "--max-dim", "10", "--cache", str(tmp_path))
    assert code == 3
    assert "error" in err
    # the default bound is the library's: D(Z13) has dimension 169 > 144
    code, _, err = _run(capsys, "double", "smatrix", "--group", "Z13",
                        "--cache", str(tmp_path))
    assert code == 3
    assert "error" in err
    # a group of order above the bound is refused from its spec, before
    # its table (or, for perm:, S10's 3,628,800 elements) is built
    for argv in (("chartab", "--group", "Z99999999"),
                 ("group", "info", "--group", "Z1000xZ1000"),
                 ("group", "info", "--group",
                  "perm:(0 1),(0 1 2 3 4 5 6 7 8 9)")):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv, "--cache", str(tmp_path))
        assert time.perf_counter() - start < 5, argv
        assert code == 3 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # the bound is checked before the cache is read, so a warm cache
    # refuses a smaller bound as an empty one does
    warm = str(tmp_path / "warm")
    for cmd in (("double", "smatrix"), ("subcats", "list"),
                ("subcats", "lattice")):
        argv = (*cmd, "--group", "D4", "--cache", warm)
        assert _run(capsys, *argv)[0] == 0
        code, out, err = _run(capsys, *argv, "--max-dim", "10")
        assert code == 3 and out == "", cmd
        assert err == "error: double of D4 has dimension 64 > 10\n", cmd


def _benchmark_worker():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_benchmark_tracer_binds(tmp_path, capsys):
    """perfbench/worker.py wraps library functions by name and arity; a
    rename must fail here rather than as failed benchmark operations."""
    tracer = _benchmark_worker().Tracer(time_builds=True)
    tracer.start()
    try:
        code = run(["chartab", "--group", "S3", "--cache", str(tmp_path)])
    finally:
        trace = tracer.stop()
    capsys.readouterr()
    assert code == 0
    assert trace["counts"]["cache.misses"] >= 1


def test_benchmark_tracer_counts_scalar_ops():
    """The tracer counts CycloNumber + and * by wrapping the operators in
    the class dict; a kernel that bypassed them would zero those counts."""
    z = CycloNumber.zeta(3, 1)
    tracer = _benchmark_worker().Tracer(time_builds=False)
    tracer.start()
    try:
        s = z + z * z
    finally:
        trace = tracer.stop()
    assert trace["counts"]["cyclo.mul_calls"] == 1
    assert trace["counts"]["cyclo.add_calls"] == 1
    assert s == -1


def test_coideals_built_once():
    """enumerate_subcats pairs each S(M,H,lambda) with C(M,H,1/lambda);
    that coideal comes from the per-algebra memo, not a second build.
    No other test builds D(Z5), so its memo starts empty."""
    A = build_double(parse_group_spec("Z5"))
    tracer = _benchmark_worker().Tracer(time_builds=False)
    tracer.start()
    try:
        coideals = enumerate_coideals(A)
        enumerate_subcats(A)
    finally:
        trace = tracer.stop()
    assert trace["counts"]["coideal.build_coideal_calls"] == len(coideals) == 8
    # every space is an Echelon built through insert, which the tracer counts
    assert trace["counts"]["linalg.echelon_insert_calls"] > 0


@pytest.mark.parametrize("name", ["D(D4)", "k[S3]"])
def test_lattice_payload_matches_the_set_computation(doubles, triangular_s3,
                                                     name):
    """covers and centralizer_pairs, read off the subcategory table's
    masks, against strict inclusion of index sets and a scan of the
    catalog for each smatrix centralizer."""
    A = triangular_s3 if name == "k[S3]" else doubles["D4"]
    subs = enumerate_subcats(A)
    sets = [set(D.indices) for D in subs]
    covers = [[i, j] for i, a in enumerate(sets) for j, b in enumerate(sets)
              if a < b and not any(a < c < b for c in sets)]
    pairs = []
    for i, D in enumerate(subs):
        c = centralizer(A, D, "smatrix")
        j = next(k for k, E in enumerate(subs) if E.indices == c.indices)
        if i <= j:
            pairs.append([i, j])
    payload = _lattice_payload(A)
    assert payload["covers"] == sorted(covers)
    assert payload["centralizer_pairs"] == sorted(pairs)
    assert [n["indices"] for n in payload["nodes"]] == [
        list(D.indices) for D in subs]


def test_max_dim_can_only_lower_the_bound(tmp_path, capsys):
    # D(Z144) has dimension 20736: a bound above DOUBLE_DIM_BOUND is a
    # usage error, refused before anything of that size is allocated
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify", "--group", "Z144", "--max-dim",
                          "20736", "--cache", str(tmp_path))
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert run(["verify", "--group", "S3", "--max-dim", "145"]) == 2
    # the library never admits more than DOUBLE_DIM_BOUND either
    with pytest.raises(BoundExceeded):
        check_double_dim(parse_group_spec("Z13"), 169)


def test_seed_is_not_an_option(capsys):
    assert run(["verify", "--group", "S3", "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err

def test_unknown_group_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "group", "info", "--group", "M11",
                        "--cache", str(tmp_path))
    assert code == 2
    assert "unknown group" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code, out, err = _run(capsys, "group", "info", "--group", f"cayley:{bad}",
                          "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _group_info(spec):
    """(exit code, stdout, stderr) of `group info` on spec, asserting that
    it took under 5 s and, on a nonzero exit, printed nothing to stdout
    and one error line to stderr."""
    start = time.perf_counter()
    code, out, err, _ = _quiet_run(["group", "info", f"--group={spec}"])
    assert time.perf_counter() - start < 5, spec
    if code:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1, (spec, out, err)
        assert lines[0].startswith("error: "), (spec, err)
    return code, out, err


# specs and cayley file contents refused with their exit code
_SPEC_PROBES = {
    # the cycles share a point, so no generator is a bijection
    "cycles-share-a-point": ("perm:(1 2)(2 0)", 2),
    "transpositions-share-a-point": ("perm:(0 1)(1 2)", 2),
    "nested-brackets": (b"[" * 200_000, 2),
    "undecodable": (b"\xff\xfe[[0", 2),
    "not-a-group": (b"[[0, 1], [1, 1]]", 2),
    "not-associative": (b"[[0, 1, 2], [1, 0, 1], [2, 2, 0]]", 2),
    "nul-in-path": ("cayley:table\x00.json", 2),
    # a cayley name is a printable string
    "name-a-list": (b'{"name": ["x\\ny"], "table": [[0, 1], [1, 0]]}', 2),
    "name-an-object": (b'{"name": {"a": 1}, "table": [[0, 1], [1, 0]]}', 2),
    "name-with-newline": (b'{"name": "a\\nb", "table": [[0, 1], [1, 0]]}', 2),
}


@pytest.mark.parametrize("probe", sorted(_SPEC_PROBES))
def test_group_spec_probe_is_refused(tmp_path, probe):
    spec, want = _SPEC_PROBES[probe]
    if isinstance(spec, bytes):
        path = tmp_path / "table.json"
        path.write_bytes(spec)
        spec = f"cayley:{path}"
    assert _group_info(spec)[0] == want


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_cayley_file_is_refused_by_its_size_bound():
    code, _, err = _group_info("cayley:/dev/zero")
    assert code == 3 and "bytes" in err


def _perm_spec(gens) -> str:
    return "perm:" + ",".join(
        "".join("(" + " ".join(map(str, cycle)) + ")" for cycle in gen)
        for gen in gens)


_ORDERS = st.integers(-3, 10**6)
_SPECS = st.one_of(
    st.sampled_from(["Q8", "S2", "S3", "S4", "A3", "A4", "D3", "D4", "D5",
                     "D6", "S5", "M11", "Z", "ZxZ2", "perm:", "cayley:",
                     "", "  "]),
    st.builds("Z{}".format, _ORDERS),
    st.builds("Z{}xZ{}".format, _ORDERS, _ORDERS),
    st.lists(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=5),
                      max_size=3), min_size=1, max_size=3).map(_perm_spec),
    st.text(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(spec=_SPECS)
def test_group_spec_fuzz(spec):
    """Any spec string exits 0, 2 or 3 within 5 s, and a refusal is one
    error line with nothing on stdout."""
    code, _, err = _group_info(spec)
    assert code in (0, 2, 3), (spec, err)
    if code == 0:
        assert err == ""


def test_missing_group(tmp_path, capsys):
    code, _, err = _run(capsys, "chartab", "--cache", str(tmp_path))
    assert code == 2


def test_bad_argv():
    assert run(["no-such-command"]) == 2


def test_parse_triple():
    G = parse_group_spec("S3")
    M, H, bc = parse_triple(G, "M=3,H=3,B=1")
    assert M.members == (0, 3, 4) and H.members == (0, 3, 4)
    assert any(v != 1 for row in bc.values for v in row)
    M, H, bc = parse_triple(G, "M=,H=,B=triv")
    assert M.members == (0,) and bc.values == ((1,),)
    # M=1 generates a subgroup of order 2, which is not normal in S3
    for bad in ("M=3,H=3", "X=3,H=3,B=0", "M=a,H=3,B=0", "M=9,H=3,B=0",
                "M=3,H=3,B=7", "M=3,H=3,B=x", "M=1,H=1,B=0",
                "M=1,H=,B=triv"):
        with pytest.raises(ParseError):
            parse_triple(G, bad)


def test_option_validation():
    for bad in (("--max-dim", "0"), ("--max-dim", "145"),
                ("--suite", "nope"), ("--format", "yaml")):
        assert run(["verify", "--group", "S3", *bad]) == 2, bad
    # --suite belongs to verify alone
    assert run(["chartab", "--group", "S3", "--suite", "smoke"]) == 2
    # --format dot belongs to subcats lattice alone: one error line
    for cmd in (("double", "irreps"), ("subcats", "list"), ("chartab",)):
        code, out, err, _ = _quiet_run([*cmd, "--group", "Z2", "--format",
                                        "dot"])
        assert (code, out) == (2, ""), cmd
        assert err == "error: --format dot is for subcats lattice only\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cmd, first, second", [
    (("chartab",), "Z3", "A3"),
    (("double", "smatrix"), "Z2", "S2"),
    (("subcats", "lattice"), "Z2", "S2"),
])
def test_warm_call_prints_requested_name(tmp_path, cmd, first, second, fmt):
    """Groups with one Cayley table share a cache entry; a warm call
    still prints the name of the group it was asked for."""
    def stdout(group, cache):
        code, out, err, _ = _quiet_run([*cmd, "--group", group, "--format",
                                        fmt, "--cache", str(cache)])
        assert code == 0 and err == ""
        return out
    cold = stdout(second, tmp_path / "cold")
    stdout(first, tmp_path / "shared")
    assert stdout(second, tmp_path / "shared") == cold
    assert second in cold


def test_cache_determinism(tmp_path, capsys):
    args = ("double", "smatrix", "--group", "S3", "--format", "json",
            "--cache", str(tmp_path))
    code1, out1, _ = _run(capsys, *args)
    files = list(tmp_path.glob("*.json"))
    assert code1 == 0 and files
    code2, out2, _ = _run(capsys, *args)
    assert code2 == 0
    assert out1 == out2  # cache hit is byte-identical


def test_cache_corruption_recovery(tmp_path, capsys):
    args = ("chartab", "--group", "S3", "--format", "json",
            "--cache", str(tmp_path))
    _, out1, _ = _run(capsys, *args)
    for f in tmp_path.glob("*.json"):
        f.write_text("{broken")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        code, out2, _ = _run(capsys, *args)
    assert code == 0 and out2 == out1


@pytest.mark.parametrize("where", ["file", "long-name", "env-file"])
def test_unusable_cache_dir_warns_once(tmp_path, where):
    """A cache directory that cannot be made, because a file holds its
    path or its name is too long, costs the cache entry: the command
    prints what it prints with a good cache directory, exits 0 and warns
    once, with no traceback."""
    def cli(*extra, **env):
        return subprocess.run(
            [sys.executable, "-m", "hopfcat.cli", "chartab", "--group", "S3",
             *extra], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(_SRC), **env))
    good = cli("--cache", str(tmp_path / "good"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    if where == "file":
        res = cli("--cache", str(blocker))
    elif where == "long-name":
        res = cli("--cache", str(tmp_path / ("x" * 300)))
    else:
        res = cli(HOPFCAT_CACHE=str(blocker))
    assert good.returncode == 0 and good.stderr == ""
    assert res.returncode == 0 and res.stdout == good.stdout
    assert res.stderr.count("UserWarning: cannot write cache entry") == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, bad", [
    (("chartab",), []),
    (("chartab",), {"rows": 5}),
    (("chartab",), {"group": "S3", "class_representatives": [0],
                    "class_sizes": [1], "degrees": [1],
                    "rows": [[{"n": "1", "c": []}]]}),
    (("double", "smatrix"), {"algebra": "D(S3)", "dims": [1], "rank": "8",
                             "phi_relation": "plain", "entries": [[]]}),
    (("subcats", "list"), {"algebra": "D(S3)", "covers": [],
                           "centralizer_pairs": []}),
    (("subcats", "lattice"), {"algebra": "D(S3)", "nodes": [
        {"label": "x", "indices": [0], "fpdim": 1.5}], "covers": [],
        "centralizer_pairs": []}),
    # right shape, impossible values
    (("subcats", "lattice"), {"algebra": "D(S3)", "nodes": [
        {"label": "x", "indices": [0], "fpdim": 1}], "covers": [[0, 99]],
        "centralizer_pairs": []}),
    (("chartab",), {"group": "S3", "class_representatives": [0],
                    "class_sizes": [1], "degrees": [1],
                    "rows": [[{"n": 0, "c": []}]]}),
    (("chartab",), {"group": "S3", "class_representatives": [0],
                    "class_sizes": [1], "degrees": [1],
                    "rows": [[{"n": 10**12, "c": []}]]}),
    (("chartab",), {"group": "S3", "class_representatives": [0],
                    "class_sizes": [1], "degrees": [1],
                    "rows": [[{"n": 3, "c": [[0, 1, 0]]}]]}),
])
def test_cache_wrong_shape_is_corrupt(tmp_path, capsys, argv, bad):
    args = argv + ("--group", "S3", "--cache", str(tmp_path))
    _, cold, _ = _run(capsys, *args)
    [entry] = tmp_path.glob("*.json")
    good = entry.read_bytes()
    entry.write_text(json.dumps(bad))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        code, out, _ = _run(capsys, *args)
    assert code == 0 and out == cold
    assert entry.read_bytes() == good


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("edit", [
    lambda p: p["rows"][0].clear(),
    lambda p: p["rows"].pop(),
    lambda p: p["class_sizes"].pop(),
], ids=["short-row", "missing-row", "missing-size"])
def test_cache_chartab_not_square_is_corrupt(tmp_path, capsys, fmt, edit):
    _assert_edited_entry_recomputed(capsys, tmp_path, edit, "chartab",
                                    "--group", "S3", "--format", fmt)


def _assert_edited_entry_recomputed(capsys, tmp_path, edit, *argv):
    """A hand-edited cache entry is discarded with a warning, and the
    command exits 0 with the cold-run stdout and rewrites the entry."""
    args = argv + ("--cache", str(tmp_path))
    _, cold, _ = _run(capsys, *args)
    [entry] = tmp_path.glob("*.json")
    good = entry.read_bytes()
    payload = json.loads(good)
    edit(payload)
    entry.write_text(json.dumps(payload))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        code, out, _ = _run(capsys, *args)
    assert code == 0 and out == cold
    assert entry.read_bytes() == good


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("edit", [
    lambda p: p["entries"].clear(),
    lambda p: p["entries"][0].pop(),
    lambda p: p["entries"].pop(),
], ids=["empty", "short-row", "missing-row"])
def test_cache_smatrix_not_square_is_corrupt(tmp_path, capsys, fmt, edit):
    _assert_edited_entry_recomputed(capsys, tmp_path, edit, "double",
                                    "smatrix", "--group", "S3",
                                    "--format", fmt)


def test_cache_purge(tmp_path, capsys):
    _run(capsys, "chartab", "--group", "Z3", "--cache", str(tmp_path))
    n = len(list(tmp_path.glob("*.json")))
    assert n >= 1
    code, out, _ = _run(capsys, "cache", "purge", "--cache", str(tmp_path))
    assert code == 0
    assert f"removed {n}" in out
    assert not list(tmp_path.glob("*.json"))


_SRC = Path(__file__).resolve().parent.parent / "src"
_ALGEBRA_MODULES = {f"hopfcat.{m}" for m in (
    "hopf", "fusion", "coideal", "verify", "chartab", "reps", "linalg",
    "cyclo")}


# standard-library modules that the dataclass decorator imports, each
# of them costly to import; a warm call loads none of them
_INTROSPECTION_MODULES = {"dataclasses", "inspect"}


def _loaded_after(code: str) -> set[str]:
    """The hopfcat submodules and the _INTROSPECTION_MODULES a fresh
    interpreter holds after running code."""
    probe = (code + "\nimport sys\nprint(*sorted(m for m in sys.modules "
             "if m.startswith('hopfcat.') or m in "
             f"{sorted(_INTROSPECTION_MODULES)!r}))")
    res = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(_SRC)))
    return set(res.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert _loaded_after("import hopfcat") == set()


def test_warm_call_imports_no_algebra_module(tmp_path, capsys):
    argvs = [[*cmd, "--group", "S3", "--format", "json",
              "--cache", str(tmp_path)]
             for cmd in (("chartab",), ("double", "smatrix"),
                         ("subcats", "list"))]
    for argv in argvs:
        assert _run(capsys, *argv)[0] == 0
    loaded = _loaded_after("from hopfcat.cli import run\n"
                           f"for argv in {argvs!r}:\n"
                           "    assert run(argv) == 0")
    assert "hopfcat.cache" in loaded
    assert not loaded & (_ALGEBRA_MODULES | _INTROSPECTION_MODULES)


def test_public_names_resolve_to_their_home_objects():
    for name in hopfcat.__all__:
        obj = getattr(hopfcat, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(hopfcat.__all__) <= set(dir(hopfcat))
    with pytest.raises(AttributeError):
        hopfcat.no_such_name
    with pytest.raises(ImportError):
        exec("from hopfcat import no_such_name", {})


# --- warm calls over damaged cache entries ---------------------------------

_FUZZ_COMMANDS = (("chartab",), ("double", "smatrix"), ("subcats", "lattice"))
_COLD: dict = {}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)


def _quiet_run(argv):
    """run(argv) -> (exit code, stdout, stderr, warning messages)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message)
                                                  for w in caught]


def _cold_entry(cmd):
    """(entry bytes, entry file name, {format: stdout}) of a cold S3 call."""
    if cmd not in _COLD:
        with tempfile.TemporaryDirectory() as d:
            cold = {fmt: _quiet_run([*cmd, "--group", "S3", "--format", fmt,
                                     "--cache", d])[1]
                    for fmt in ("text", "json")}
            [entry] = Path(d).glob("*.json")
            _COLD[cmd] = entry.read_bytes(), entry.name, cold
    return _COLD[cmd]


def _reshape(value, data):
    """value with one node, reached by drawn keys, replaced by drawn JSON,
    or, when it is a nonempty container, stripped of one drawn child."""
    if isinstance(value, (dict, list)) and value:
        k = data.draw(st.sampled_from(
            sorted(value) if isinstance(value, dict) else range(len(value))))
        step = data.draw(st.sampled_from(("descend", "drop", "replace")))
        if step == "descend":
            value[k] = _reshape(value[k], data)
        elif step == "drop":
            del value[k]
        else:
            value[k] = data.draw(_JSON)
        return value
    return data.draw(_JSON)


@settings(max_examples=50, deadline=None)
@given(cmd=st.sampled_from(_FUZZ_COMMANDS),
       fmt=st.sampled_from(("text", "json")), data=st.data())
def test_warm_call_over_damaged_entry(cmd, fmt, data):
    """A truncated, bit-flipped or re-shaped entry never ends in a
    traceback: the call exits 0, and either discards the entry with a
    warning and prints the cold stdout, or serves the entry as it is,
    which then parses and fits its shape (and prints the cold stdout
    when it still holds the cold values)."""
    good, name, cold = _cold_entry(cmd)
    how = data.draw(st.sampled_from(("truncate", "flip", "reshape")))
    if how == "truncate":
        bad = good[:data.draw(st.integers(0, len(good) - 1))]
    elif how == "flip":
        i = data.draw(st.integers(0, len(good) - 1))
        bit = 1 << data.draw(st.integers(0, 7))
        bad = good[:i] + bytes([good[i] ^ bit]) + good[i + 1:]
    else:
        bad = json.dumps(_reshape(json.loads(good), data)).encode()
    with tempfile.TemporaryDirectory() as d:
        entry = Path(d) / name
        entry.write_bytes(bad)
        code, out, err, warned = _quiet_run(
            [*cmd, "--group", "S3", "--format", fmt, "--cache", d])
        assert code == 0 and err == ""
        if any("corrupt cache entry" in w for w in warned):
            assert out == cold[fmt] and entry.read_bytes() == good
        else:
            assert entry.read_bytes() == bad
            if json.loads(bad) == json.loads(good):
                assert out == cold[fmt]


def test_closed_stdout_ends_quietly(tmp_path):
    # `hopfcat subcats list --group D4 | head -1`: the reader is gone before
    # the first line is written, so every write meets a broken pipe
    with subprocess.Popen(
            [sys.executable, "-m", "hopfcat.cli", "subcats", "list",
             "--group", "D4", "--cache", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(_SRC))) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert err == b""
