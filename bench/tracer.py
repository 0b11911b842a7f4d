"""Spans and counts for one kshift job, recorded from outside the package.

`Tracer.install` replaces each traced function, in every kshift module
namespace and module-level registry dict that holds it, by a wrapper that
records a span (name, start, end, parent) and adds to named counters.  The
replacement has to reach every namespace because `identities`, `genfun` and
`cli` bind names with `from .genfun import gp_gq` and the like; wrapping only
the defining module would leave their calls uncounted.  Nothing under `src/`
changes.

Spans are kept in memory as parallel arrays and written out once, when the
job ends.  The harness turns them into self times with `self_times`: a span's
duration minus the part of it that its child spans cover.

Targets are looked up by name when the tracer is installed; a missing target
raises, so a renamed function breaks the traced run instead of reading zero.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

clock = time.monotonic

# Span name -> per-layer metric holding that span's summed self time.
SPAN_METRICS = {
    "polyring.mul": "polyring.mul_s",
    "polyring.kernel": "polyring.kernel_s",
    "polyring.json_encode": "polyring.json_encode_s",
    "polyring.json_decode": "polyring.json_decode_s",
    "tableaux.genfun": "tableaux.genfun_s",
    "tableaux.iter": "tableaux.iter_s",
    "shapes.cells": "shapes.cells_s",
    "genfun.dual_table": "genfun.dual_table_s",
    "genfun.expand": "genfun.expand_s",
    "cache.disk_read": "cache.disk_read_s",
    "cache.disk_write": "cache.disk_write_s",
    "cli.main": "cli.main_s",
}
CHECK_SPAN = "identities.check."


class Tracer:
    """Span store and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._open.pop()

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, span=None, count=None, hook=None, build=None):
        """Wrap a function: optional span, call counter, result hook, build count.

        `build=(kind, counter)` adds 1 to `counter` when the call ran the
        compute step of a `kind` memo lookup (a cache miss inside the call).
        """
        nid = None if span is None else self.name_id(span)
        counts = self.counts
        miss_key = None if build is None else "cache.misses." + build[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts[miss_key] if miss_key else 0
            if nid is None:
                result = fn(*args, **kwargs)
            else:
                idx = self.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
            if count:
                counts[count] += 1
            if hook:
                hook(counts, args, result)
            if miss_key and counts[miss_key] > before:
                counts[build[1]] += 1
            return result

        return wrapper

    def wrap_generator(self, fn, span, count):
        """Wrap a generator function: one span per resume, one count per item."""
        nid = self.name_id(span)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                counts[count] += 1
                yield item

        return wrapper

    def wrap_cache(self, cls) -> None:
        """Count hits and misses per key kind, and time the disk reads and writes.

        A hit or miss is seen from outside: the wrapper passes its own
        `compute` callable and notes whether it ran.  A process starts with an
        empty memory map, so a `get` that returns a value for a key this
        process has not seen before read it from disk.
        """
        counts = self.counts
        seen: set[str] = set()
        read_id = self.name_id("cache.disk_read")
        write_id = self.name_id("cache.disk_write")
        probe_id = self.name_id("cache.probe")
        get_or_compute, get, put = cls.get_or_compute, cls.get, cls.put

        @functools.wraps(get_or_compute)
        def traced_get_or_compute(cache, key, compute, *args, **kwargs):
            ran = []

            def counted():
                ran.append(True)
                return compute()

            value = get_or_compute(cache, key, counted, *args, **kwargs)
            counts[("cache.misses." if ran else "cache.hits.") + str(key[0])] += 1
            return value

        @functools.wraps(get)
        def traced_get(cache, key):
            key_str = cache.key_string(key)
            if key_str in seen or not cache.enabled:
                return get(cache, key)
            idx = self.open(probe_id)
            try:
                value = get(cache, key)
            finally:
                self.close(idx)
            seen.add(key_str)
            if value is not None:
                self.name_of[idx] = read_id
                counts["cache.disk_reads"] += 1
                counts["cache.disk_read_bytes"] += os.path.getsize(cache._path(key_str))
            return value

        @functools.wraps(put)
        def traced_put(cache, key, value):
            key_str = cache.key_string(key)
            seen.add(key_str)
            if not (cache.enabled and cache.directory):
                return put(cache, key, value)
            idx = self.open(write_id)
            try:
                put(cache, key, value)
            finally:
                self.close(idx)
            counts["cache.disk_writes"] += 1
            counts["cache.disk_write_bytes"] += os.path.getsize(cache._path(key_str))

        cls.get_or_compute = traced_get_or_compute
        cls.get = traced_get
        cls.put = traced_put

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every kshift layer (see the module doc)."""
        from kshift import cache, genfun, identities, polyring, shapes, tableaux

        def pairs(key):
            def hook(counts, args, result):
                counts[key] += len(args[0].terms) * len(args[1].terms)

            return hook

        def genfun_terms(counts, args, result):
            counts["tableaux.genfun_terms"] += len(result.terms)

        def peel_steps(counts, args, result):
            counts["genfun.peel_steps"] += sum(1 for c in result.coeffs.values() if not c.is_zero())

        def cases(counts, args, result):
            counts["identities.cases"] += result.cases

        poly = polyring.BetaPoly
        self.patch_method(poly, "__init__", self.wrap(poly.__init__, count="polyring.polys_built"))
        self.patch_method(
            poly,
            "__mul__",
            self.wrap(poly.__mul__, span="polyring.mul", count="polyring.mul_calls",
                      hook=pairs("polyring.mul_term_pairs")),
        )
        for op in ("__add__", "__sub__"):
            self.patch_method(poly, op, self.wrap(getattr(poly, op), count="polyring.addsub_calls"))
        self.patch_method(poly, "to_json_obj", self.wrap(poly.to_json_obj, span="polyring.json_encode"))
        self.patch_method(
            poly,
            "from_json_obj",
            classmethod(self.wrap(poly.__dict__["from_json_obj"].__func__, span="polyring.json_decode")),
        )
        self.patch_function(
            polyring.tensor_split,
            self.wrap(polyring.tensor_split, count="polyring.tensor_split_calls",
                      hook=pairs("polyring.tensor_split_pairs")),
        )
        self.patch_function(polyring.cauchy_kernel, self.wrap(polyring.cauchy_kernel, span="polyring.kernel"))

        self.patch_function(
            tableaux.genfun_from_tableaux,
            self.wrap(tableaux.genfun_from_tableaux, span="tableaux.genfun", count="tableaux.genfun_calls",
                      hook=genfun_terms),
        )
        self.patch_function(
            tableaux.iter_tableaux,
            self.wrap_generator(tableaux.iter_tableaux, "tableaux.iter", "tableaux.iter_yielded"),
        )
        self.patch_function(
            tableaux.iter_restricted_p,
            self.wrap_generator(tableaux.iter_restricted_p, "tableaux.iter", "tableaux.restricted_yielded"),
        )
        for cls in (shapes.StrictPartition, shapes.SkewShape):
            self.patch_method(cls, "cells", self.wrap(cls.cells, span="shapes.cells", count="shapes.cells_calls"))

        self.patch_function(genfun.gp_gq, self.wrap(genfun.gp_gq, build=("gpgq", "genfun.gpgq_builds")))
        self.patch_function(
            genfun.dual_table,
            self.wrap(genfun.dual_table, span="genfun.dual_table", build=("dual_table", "genfun.dual_table_builds")),
        )
        self.patch_function(
            genfun.expand_in_basis,
            self.wrap(genfun.expand_in_basis, span="genfun.expand", count="genfun.expand_calls", hook=peel_steps),
        )
        self.patch_function(genfun.jp_jq, self.wrap(genfun.jp_jq, build=("jpjq", "genfun.jpjq_builds")))
        self.patch_function(
            genfun.dual_skew_table,
            self.wrap(genfun.dual_skew_table, build=("dual_skew_table", "genfun.dual_skew_builds")),
        )

        for check_id, check in list(identities.CHECKS.items()):
            self.patch_function(check, self.wrap(check, span=CHECK_SPAN + check_id, hook=cases))

        self.wrap_cache(cache.MemoCache)

    def patch_method(self, cls, attr: str, replacement) -> None:
        if attr not in cls.__dict__:
            raise LookupError(f"trace target {cls.__name__}.{attr} not found")
        setattr(cls, attr, replacement)

    def patch_function(self, original, replacement) -> None:
        """Replace `original` in every kshift module namespace and registry dict."""
        found = 0
        for name, module in list(sys.modules.items()):
            if name != "kshift" and not name.startswith("kshift."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    found += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            found += 1
        if not found:
            raise LookupError(f"trace target {original.__qualname__} not found")

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the counters and span table to `path` and the spans beside it."""
        with open(path + ".spans", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "nspans": len(self.start), "counts": dict(self.counts)}, fh)


def load_spans(path: str, nspans: int):
    """Read back what `Tracer.dump` wrote: (name_of, parent, start, end)."""
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, nspans)
    return arrays


def self_times(names, name_of, parent, start, end) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's durations."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, float] = {}
    for i, nid in enumerate(name_of):
        name = names[nid]
        out[name] = out.get(name, 0.0) + (end[i] - start[i] - child[i])
    return out
