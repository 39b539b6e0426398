"""Content-addressed JSON cache for computed tables and lattices.

Keys mix the Cayley table of the group, the topic and the artifact
version, so a change to any of them is a clean miss.  Values are JSON
documents; an entry that does not parse, or does not fit the shape its
caller expects, is corrupt: it is discarded with a warning and
recomputed.
"""

from __future__ import annotations

import hashlib
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


def cache_key(group: Group, topic: str, extra: str = "",
              version: str = ARTIFACT_VERSION) -> str:
    h = hashlib.sha256()
    h.update(version.encode())
    h.update(b"\x00")
    h.update(json.dumps([list(r) for r in group.table]).encode())
    h.update(b"\x00")
    h.update(topic.encode())
    h.update(b"\x00")
    h.update(extra.encode())
    return h.hexdigest()


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def fits(value, shape) -> bool:
    """Whether a JSON value has a shape.  A shape is a type (object for
    any value), a one-item list [s] for lists whose elements all fit s,
    or a dict for dicts with exactly its keys, each value fitting."""
    if isinstance(shape, list):
        return type(value) is list and all(fits(v, shape[0]) for v in value)
    if isinstance(shape, dict):
        return (type(value) is dict and value.keys() == shape.keys()
                and all(fits(value[k], s) for k, s in shape.items()))
    return shape is object or type(value) is shape


class ResultCache:
    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return json.loads(text)
        except ValueError:
            self._discard(key)
            return None

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
        self.put(key, value)
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
