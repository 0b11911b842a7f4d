"""Content-addressed memo cache: in-memory map plus optional JSON files.

Keys are JSON-serializable lists whose first element names the kind of value.  The
memory map keys them by a hashable normal form (`_normal`), shared exactly by keys
whose JSON strings are equal; JSON appears only at the disk boundary, `get` and `put`,
where a key string (`key_string`) names the file by an injective ASCII escape (a key
too long for a name stays in memory), and a value is encoded when written and decoded
after a read.  Every key string carries SCHEMA_VERSION, so files written under an older
key layout or algorithm are never read: bump it when a value changes meaning.  The
memory map holds live values, immutable by convention (the dual tables grow in place
and are stored again).  A `dual_table` value (per flavor) and a `dual_skew_table` value
(per flavor and lam) hold a table of views per alphabet, terms at partition exponents
only: an entry known in n variables serves ny <= n by restriction.  The maps the checks
apply to views (omega, x -> x/(1 - beta x), kernel products) are linear, so `genfun`
keeps their images of the monomials m_lam per process, not here.  A file is created
once, then only appended to (a table {outer: {inner: entry}} by the entries it lacks);
a reader skips a torn last line, and a file naming another key or with a line that does
not read is a miss, rewritten whole.  Results must be identical with the cache disabled.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

SCHEMA_VERSION = 5
_ESCAPE = {c: f"%{c:02x}" for c in range(128) if not (chr(c).isalnum() or chr(c) in ",-._")}


class MemoCache:
    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory
        self.enabled = enabled
        self._mem: dict[tuple, Any] = {}
        self._held: dict[str, set] = {}  # per file path: the entries this cache read there or wrote

    def configure(self, directory: str | None = None, enabled: bool | None = None) -> None:
        if directory is not None:
            self.directory = directory or None
        if enabled is not None:
            self.enabled = enabled

    def clear_memory(self) -> None:
        self._mem.clear()
        self._held.clear()  # a file's record is kept only with its value, so a miss always writes whole

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

    @staticmethod
    def _entries(value: Any) -> set:
        return {(n, m) for n, table in value.items() for m in table} if isinstance(value, dict) else set()

    def _path(self, key_str: str) -> str | None:
        """The key string's file, named by an injective escape (%xx for '%' and each ASCII but [A-Za-z0-9,-._]), or None."""
        name = key_str.translate(_ESCAPE)
        return os.path.join(self.directory, name + ".json") if len(name) <= 200 else None

    def get(self, key: Any) -> Any | None:
        """The JSON value stored on disk under key, its appended entries merged in, or None if none reads there."""
        key_str = self.key_string(key) if self.directory else None
        path = key_str and self._path(key_str)
        if not path:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                head, *lines, _ = fh.read().split("\n")  # the last piece is empty, or a torn line
            if head != key_str or not lines:
                return None
            value = json.loads(lines[0])
            for line in lines[1:]:
                for n, table in json.loads(line).items():
                    value.setdefault(n, {}).update(table)
            return value
        except (OSError, ValueError, AttributeError, TypeError):
            return None

    def put(self, key: Any, value: Any) -> None:
        """Write the JSON value under key: a line appended to a file this cache read or wrote, else a new file."""
        key_str = self.key_string(key) if self.directory else None
        path = key_str and self._path(key_str)
        if path:
            line, tmp = json.dumps(value, separators=(",", ":")) + "\n", f"{path}.{os.getpid()}.tmp"
            try:
                if path in self._held:  # one write, at the end of a file that is there
                    with open(os.open(path, os.O_WRONLY | os.O_APPEND), "wb", buffering=0) as fh:
                        fh.write(line.encode())
                else:
                    os.makedirs(self.directory, exist_ok=True)
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.write(key_str + "\n" + line)
                    os.replace(tmp, path)
                    self._held[path] = set()
            except OSError:
                self._held.pop(path, None)  # what the file holds is unknown: the next write is whole
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def store(self, key: Any, value: Any, encode: Callable[[Any], Any]) -> None:
        """Keep the live value in memory; with a directory, write what its file lacks (of a table, its new entries)."""
        if self.enabled:
            self._mem[self._normal(key)] = value
            path = self.directory and self._path(self.key_string(key))
            if path and isinstance(value, dict):
                known = self._held.get(path, ())
                value = {n: new for n, table in value.items() if (new := {m: v for m, v in table.items() if (n, m) not in known})}
            if path and (value if isinstance(value, dict) else path not in self._held):
                self.put(key, encode(value))
                self._held.get(path, set()).update(self._entries(value))

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
                self._mem[normal] = value = decode(hit)
                self._held[self._path(self.key_string(key))] = self._entries(value)
            except Exception:  # whatever a damaged value makes the decoder raise: a miss, as an unreadable file is
                hit = None
        if hit is None:
            self.store(key, compute(), encode)
        return self._mem[normal]


CACHE = MemoCache(directory=os.environ.get("KSHIFT_CACHE_DIR") or None, enabled=True)
