"""Content-addressed JSON cache for computed tables and lattices.

Keys mix the Cayley table of the group, the topic and the artifact
version, so a change to any of them is a clean miss.  Values are JSON
documents; an entry that does not parse, or does not fit the shape its
caller expects, is corrupt: it is discarded with a warning and
recomputed.  An entry that cannot be written, as when the cache
directory is a file or its name is too long, is skipped with a warning.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Callable

from .groups import Group

ARTIFACT_VERSION = "1"


def default_cache_dir() -> Path:
    env = os.environ.get("HOPFCAT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hopfcat"


def cache_key(group: Group, topic: str) -> str:
    # hashlib loads OpenSSL: imported where a key is made, so a process
    # that never reads the cache (`verify`, a library run) does not load it
    import hashlib
    # the trailing separator keeps every key, and so every cache file
    # name, as earlier releases wrote them
    fields = (ARTIFACT_VERSION, json.dumps([list(r) for r in group.table]),
              topic, "")
    return hashlib.sha256("\x00".join(fields).encode()).hexdigest()


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def fits(value, shape) -> bool:
    """Whether a JSON value has a shape.  A shape is a type (object for
    any value), a one-item list [s] for lists whose elements all fit s,
    a dict for dicts with exactly its keys, each value fitting, or a
    predicate, for the values it accepts."""
    if isinstance(shape, list):
        return type(value) is list and all(fits(v, shape[0]) for v in value)
    if isinstance(shape, dict):
        return (type(value) is dict and value.keys() == shape.keys()
                and all(fits(value[k], s) for k, s in shape.items()))
    if isinstance(shape, type):
        return shape is object or type(value) is shape
    return shape(value)


class ResultCache:
    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            value = json.loads(data)
        except (ValueError, RecursionError):
            # not JSON: undecodable bytes, bad syntax or nesting too deep
            value = None
        if value is None:   # no entry is null, so this one is corrupt
            self._discard(key)
        return value

    def _discard(self, key: str) -> None:
        path = self._path(key)
        warnings.warn(f"discarding corrupt cache entry {path.name}")
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, value) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(_dump(value))
        os.replace(tmp, path)

    def get_or_compute(self, key: str, compute: Callable[[], object],
                       shape=object):
        hit = self.get(key)
        if hit is not None:
            if fits(hit, shape):
                return hit
            self._discard(key)
        value = json.loads(_dump(compute()))
        try:
            self.put(key, value)
        except OSError as e:
            # an unusable cache directory costs the entry, not the answer
            warnings.warn(f"cannot write cache entry {self._path(key).name}: "
                          f"{e}")
        return value

    def purge(self) -> int:
        """Remove every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.json")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
