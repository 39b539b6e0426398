import pytest

from hopfcat.cache import ResultCache, cache_key, default_cache_dir, fits
from hopfcat.groups import parse_group_spec


def test_cache_key_separates_inputs():
    s3 = parse_group_spec("S3")
    z6 = parse_group_spec("Z6")
    k1 = cache_key(s3, "smatrix")
    assert k1 == cache_key(s3, "smatrix")  # stable
    assert k1 != cache_key(z6, "smatrix")
    assert k1 != cache_key(s3, "fusion")
    assert k1 != cache_key(s3, "smatrix", extra="x")
    assert k1 != cache_key(s3, "smatrix", version="2")
    assert len(k1) == 64


def test_get_put_round_trip(tmp_path):
    c = ResultCache(tmp_path)
    assert c.get("missing") is None
    c.put("k", {"a": [1, 2], "b": "x"})
    assert c.get("k") == {"a": [1, 2], "b": "x"}


def test_get_or_compute_runs_once(tmp_path):
    c = ResultCache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"n": 3}

    assert c.get_or_compute("k", compute) == {"n": 3}
    assert c.get_or_compute("k", compute) == {"n": 3}
    assert len(calls) == 1


def test_get_or_compute_normalizes(tmp_path):
    # computed values round-trip through JSON, so a miss and a hit
    # return identical objects (tuples become lists on both paths)
    c = ResultCache(tmp_path)
    first = c.get_or_compute("k", lambda: {"t": (1, 2)})
    second = c.get_or_compute("k", lambda: {"t": (1, 2)})
    assert first == second == {"t": [1, 2]}


def test_corrupt_entry_discarded(tmp_path):
    c = ResultCache(tmp_path)
    c.put("k", [1])
    (tmp_path / "k.json").write_text("{nope")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert c.get("k") is None
    assert not (tmp_path / "k.json").exists()
    assert c.get_or_compute("k", lambda: [2]) == [2]


def test_fits():
    shape = {"n": int, "rows": [[str]], "any": object}
    assert fits({"n": 1, "rows": [["a"], []], "any": None}, shape)
    assert fits({"n": 1, "rows": [], "any": [1]}, shape)
    assert not fits({"n": True, "rows": [], "any": 0}, shape)  # bool is no int
    assert not fits({"n": 1, "rows": [["a", 2]], "any": 0}, shape)
    assert not fits({"n": 1, "rows": []}, shape)  # a missing key
    assert not fits({"n": 1, "rows": [], "any": 0, "x": 0}, shape)
    assert not fits([], shape) and not fits({"n": 1}, [int])


def test_wrong_shape_entry_recomputed(tmp_path):
    c = ResultCache(tmp_path)
    c.put("k", {"rows": 5})
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert c.get_or_compute("k", lambda: [2], [int]) == [2]
    assert c.get("k") == [2]


def test_purge(tmp_path):
    c = ResultCache(tmp_path)
    for i in range(3):
        c.put(f"k{i}", i)
    assert c.purge() == 3
    assert c.purge() == 0


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("HOPFCAT_CACHE", str(tmp_path / "c"))
    assert default_cache_dir() == tmp_path / "c"
    monkeypatch.delenv("HOPFCAT_CACHE")
    assert default_cache_dir().name == "hopfcat"
