"""Content-addressed memo cache: in-memory map plus optional JSON files.

Keys are JSON-serializable lists whose first element names the kind of value.  The
memory map keys them by a hashable normal form (`_normal`), shared exactly by keys
whose JSON strings are equal; JSON appears only at the disk boundary, `get` and `put`,
where a key string (`key_string`) names the file and a value is encoded when written
and decoded after a read.  Every key string carries SCHEMA_VERSION, so files written
under an older key layout or algorithm are never read: bump it when a value changes
meaning.  The memory map holds live values, immutable by convention (the dual tables
grow in place and are stored again).  A `dual_table` value (per flavor) and a
`dual_skew_table` value (per flavor and lam) hold a table of views per alphabet,
terms at partition exponents only: an entry known in n variables serves ny <= n by
restriction.  The maps the checks apply to views (omega, x -> x/(1 - beta x), kernel
products) are linear, so `genfun` keeps their images of the monomials m_lam per
process, not here.  Disk writes replace the file atomically, so readers always see a
complete document.  Results must be identical with the cache disabled.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

SCHEMA_VERSION = 4


class MemoCache:
    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory
        self.enabled = enabled
        self._mem: dict[tuple, Any] = {}

    def configure(self, directory: str | None = None, enabled: bool | None = None) -> None:
        if directory is not None:
            self.directory = directory or None
        if enabled is not None:
            self.enabled = enabled

    def clear_memory(self) -> None:
        self._mem.clear()

    @staticmethod
    def key_string(key: Any) -> str:
        return json.dumps([SCHEMA_VERSION, key], sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _normal(key: Any) -> tuple:
        """The memory map's form of a key: lists (and tuples, which JSON writes as lists) by element, each scalar
        with its type, and by its JSON text unless a str, int or None: 1, True and 1.0 get three forms."""
        if isinstance(key, (list, tuple)):
            return tuple(map(MemoCache._normal, key))
        return key.__class__, key if key is None or key.__class__ in (str, int) else json.dumps(key, sort_keys=True)

    def _path(self, key_str: str) -> str:
        import hashlib  # here, not at the top: only a disk cache needs it, and it is slow to import
        digest = hashlib.sha256(key_str.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, key: Any) -> Any | None:
        """The JSON value stored on disk under key, or None if no object under key is there."""
        key_str = self.key_string(key) if self.directory else None
        path = key_str and self._path(key_str)
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                return None
            if isinstance(doc, dict) and doc.get("key") == key_str:
                return doc.get("value")
        return None

    def put(self, key: Any, value: Any) -> None:
        """Write the JSON value to disk under key; a no-op without a directory."""
        if self.directory:
            key_str = self.key_string(key)
            path = self._path(key_str)
            os.makedirs(self.directory, exist_ok=True)
            import tempfile  # here, not at the top: only a disk write needs it, and it is slow to import
            doc = json.dumps({"key": key_str, "value": value}, sort_keys=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(doc)
                os.replace(tmp, path)
            except OSError:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def store(self, key: Any, value: Any, encode: Callable[[Any], Any]) -> None:
        """Keep the live value in memory; with a directory, write encode(value) to disk."""
        if self.enabled:
            self._mem[self._normal(key)] = value
            if self.directory:
                self.put(key, encode(value))

    def get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        encode: Callable[[Any], Any] = lambda v: v,
        decode: Callable[[Any], Any] = lambda v: v,
    ) -> Any:
        if not self.enabled:
            return compute()
        normal = self._normal(key)
        if normal in self._mem:
            return self._mem[normal]
        hit = self.get(key)
        if hit is not None:
            try:
                self._mem[normal] = decode(hit)
            except Exception:  # whatever a damaged value makes the decoder raise: a miss, as an unreadable file is
                hit = None
        if hit is None:
            self.store(key, compute(), encode)
        return self._mem[normal]


CACHE = MemoCache(directory=os.environ.get("KSHIFT_CACHE_DIR") or None, enabled=True)
