"""Content-addressed memo cache: in-memory map plus optional JSON files.

Keys are JSON-serializable tuples; values are JSON objects.  Disk writes go
through a temporary file and an atomic replace, so concurrent readers always
see a complete document.  Results must be identical with the cache disabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable


class MemoCache:
    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.directory = directory
        self.enabled = enabled
        self._mem: dict[str, Any] = {}

    def configure(self, directory: str | None = None, enabled: bool | None = None) -> None:
        if directory is not None:
            self.directory = directory or None
        if enabled is not None:
            self.enabled = enabled

    def clear_memory(self) -> None:
        self._mem.clear()

    @staticmethod
    def key_string(key: Any) -> str:
        return json.dumps(key, sort_keys=True, separators=(",", ":"))

    def _path(self, key_str: str) -> str | None:
        if not self.directory:
            return None
        digest = hashlib.sha256(key_str.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, key: Any) -> Any | None:
        if not self.enabled:
            return None
        key_str = self.key_string(key)
        if key_str in self._mem:
            return self._mem[key_str]
        path = self._path(key_str)
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                return None
            if doc.get("key") != key_str:
                return None
            self._mem[key_str] = doc["value"]
            return doc["value"]
        return None

    def put(self, key: Any, value: Any) -> None:
        if not self.enabled:
            return
        key_str = self.key_string(key)
        self._mem[key_str] = value
        path = self._path(key_str)
        if path:
            os.makedirs(self.directory, exist_ok=True)
            doc = json.dumps({"key": key_str, "value": value}, sort_keys=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(doc)
                os.replace(tmp, path)
            except OSError:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        encode: Callable[[Any], Any] = lambda v: v,
        decode: Callable[[Any], Any] = lambda v: v,
    ) -> Any:
        hit = self.get(key)
        if hit is not None:
            return decode(hit)
        value = compute()
        self.put(key, encode(value))
        return value


CACHE = MemoCache(directory=os.environ.get("KSHIFT_CACHE_DIR") or None, enabled=True)
