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
    assert len(k1) == 64


def test_cache_keys_are_pinned():
    """Keys, and so cache file names, stay those of earlier releases."""
    assert cache_key(parse_group_spec("S3"), "smatrix") == (
        "8108ddea3ff765c41c04a573268a6feca482f55d685216bc6c2312e7ab70f795")
    assert cache_key(parse_group_spec("D4"), "lattice") == (
        "ff0770cd1b415f306bed829c771159e87f72818ff27f7b77e642ee6290a3f862")


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

    assert c.get_or_compute("k", compute, object) == {"n": 3}
    assert c.get_or_compute("k", compute, object) == {"n": 3}
    assert len(calls) == 1


def test_get_or_compute_normalizes(tmp_path):
    # computed values round-trip through JSON, so a miss and a hit
    # return identical objects (tuples become lists on both paths)
    c = ResultCache(tmp_path)
    first = c.get_or_compute("k", lambda: {"t": (1, 2)}, object)
    second = c.get_or_compute("k", lambda: {"t": (1, 2)}, object)
    assert first == second == {"t": [1, 2]}


def test_corrupt_entry_discarded(tmp_path):
    c = ResultCache(tmp_path)
    c.put("k", [1])
    (tmp_path / "k.json").write_text("{nope")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert c.get("k") is None
    assert not (tmp_path / "k.json").exists()
    assert c.get_or_compute("k", lambda: [2], object) == [2]


@pytest.mark.parametrize("data", [b"\xff{}", b"[" * 5000 + b"]" * 5000,
                                  b"null"],
                         ids=["not-utf8", "too-deep", "null"])
def test_undecodable_entry_discarded(tmp_path, data):
    c = ResultCache(tmp_path)
    (tmp_path / "k.json").write_bytes(data)
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert c.get("k") is None
    assert not (tmp_path / "k.json").exists()


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
