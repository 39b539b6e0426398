import importlib.util
import json
from pathlib import Path

import pytest

from hopfcat import build_double, enumerate_coideals, enumerate_subcats
from hopfcat.cli import RunConfig, parse_triple, run
from hopfcat.errors import ParseError
from hopfcat.groups import parse_group_spec


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


def test_verify_dim_bound_skip(tmp_path, capsys):
    code, out, _ = _run(capsys, "verify", "--group", "D4",
                        "--max-dim", "10", "--format", "json",
                        "--cache", str(tmp_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["checks"] == [{"id": "algebra-build", "subject": "D4",
                              "pass": True, "detail": "skipped: dim bound"}]


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


def test_missing_group(tmp_path, capsys):
    code, _, err = _run(capsys, "chartab", "--cache", str(tmp_path))
    assert code == 2


def test_bad_argv():
    assert run(["no-such-command"]) == 2


def test_parse_triple():
    G = parse_group_spec("S3")
    M, H, bc = parse_triple(G, "M=3,H=3,B=1")
    assert M.members == (0, 3, 4) and H.members == (0, 3, 4)
    assert not bc.is_trivial()
    M, H, bc = parse_triple(G, "M=,H=,B=triv")
    assert M.members == (0,) and bc.is_trivial()
    # M=1 generates a subgroup of order 2, which is not normal in S3
    for bad in ("M=3,H=3", "X=3,H=3,B=0", "M=a,H=3,B=0", "M=9,H=3,B=0",
                "M=3,H=3,B=7", "M=3,H=3,B=x", "M=1,H=1,B=0",
                "M=1,H=,B=triv"):
        with pytest.raises(ParseError):
            parse_triple(G, bad)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_algebra_dim=0)
    with pytest.raises(ValueError):
        RunConfig(suite="nope")
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")


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


def test_cache_purge(tmp_path, capsys):
    _run(capsys, "chartab", "--group", "Z3", "--cache", str(tmp_path))
    n = len(list(tmp_path.glob("*.json")))
    assert n >= 1
    code, out, _ = _run(capsys, "cache", "purge", "--cache", str(tmp_path))
    assert code == 0
    assert f"removed {n}" in out
    assert not list(tmp_path.glob("*.json"))
