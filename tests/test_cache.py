import hashlib
import json
import os
import re
from urllib.parse import unquote

from kshift import genfun
from kshift.cache import CACHE, MemoCache
from kshift.polyring import BetaPoly
from kshift.shapes import StrictPartition


def test_a_memory_hit_returns_the_same_object():
    cache = MemoCache()
    codec = (BetaPoly.to_json_obj, BetaPoly.from_json_obj)
    value = cache.get_or_compute(["kind", 1], lambda: BetaPoly.variable(1, 2), *codec)
    assert cache.get_or_compute(["kind", 1], lambda: BetaPoly.zero(2), *codec) is value


def test_keys_with_different_strings_never_share_a_memory_entry():
    cache = MemoCache()
    keys = (["kind", 1], ["kind", "1"], ["kind", None], ["kind", "None"], ["kind", [1, 2]], ["kind", "(1, 2)"], ["kind", 1, 2])
    keys += (["kind", True], ["kind", "true"], ["kind", 1.0], ["kind", "1.0"], ["kind", [[1], 2]], ["kind", [1, [2]]], ["kind", [[1, 2]]])
    assert len({MemoCache.key_string(key) for key in keys}) == len(keys)
    assert [cache.get_or_compute(key, lambda i=i: i) for i, key in enumerate(keys)] == list(range(len(keys)))


def test_keys_with_equal_strings_share_a_memory_entry():
    cache = MemoCache()
    assert MemoCache.key_string(["kind", (1, 2)]) == MemoCache.key_string(["kind", [1, 2]])
    assert cache.get_or_compute(["kind", (1, 2)], lambda: "first") == cache.get_or_compute(["kind", [1, 2]], lambda: "again") == "first"


def test_a_check_without_a_directory_encodes_no_key(monkeypatch):
    # the memory map keys by a normal form: JSON is for the disk boundary only
    from kshift import identities

    def key_string(key):
        raise AssertionError(f"a key was JSON-encoded with no cache directory: {key}")

    monkeypatch.setattr(MemoCache, "key_string", staticmethod(key_string))
    monkeypatch.setattr(CACHE, "directory", None)
    monkeypatch.setattr(CACHE, "_mem", {})
    assert identities.check_cauchy_family().ok
    assert CACHE._mem


def test_a_strict_partition_is_hashed_once_as_its_parts():
    lam = StrictPartition((3, 1))
    assert hash(lam) == hash(((3, 1),)) == lam._hash
    assert {lam: 1}[StrictPartition.parse("3,1")] == 1


def test_a_disk_value_is_decoded_once(tmp_path):
    decoded = []

    def decode(obj):
        decoded.append(obj)
        return tuple(obj)

    MemoCache(str(tmp_path)).get_or_compute(["kind"], lambda: (1, 2), list, decode)
    cache = MemoCache(str(tmp_path))
    first = cache.get_or_compute(["kind"], lambda: (3,), list, decode)
    assert first == (1, 2) and decoded == [[1, 2]]
    assert cache.get_or_compute(["kind"], lambda: (3,), list, decode) is first
    assert decoded == [[1, 2]]


def test_without_a_directory_nothing_is_encoded(monkeypatch):
    def encode(self):
        raise AssertionError("a value was encoded with no cache directory")

    monkeypatch.setattr(BetaPoly, "to_json_obj", encode)
    monkeypatch.setattr(CACHE, "directory", None)
    monkeypatch.setattr(CACHE, "_mem", {})
    lam = StrictPartition((2, 1))
    for _ in range(2):  # a miss, then a memory hit
        for func in ("GQ", "gq", "jq", "schur", "P"):
            genfun.evaluate(func, lam.parts, (), 2, 5)
        genfun.evaluate("gp", lam.parts, (1,), 2, 5)


def test_a_value_under_the_unversioned_key_is_not_served(tmp_path):
    key = ["kind", 1]
    old = json.dumps(key, sort_keys=True, separators=(",", ":"))
    stale = MemoCache(str(tmp_path))._path(old)  # the file the unversioned key string names
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write(old + "\n" + json.dumps("stale") + "\n")
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "fresh") == "fresh"
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "again") == "fresh"


def test_a_file_holding_no_json_object_is_a_miss(tmp_path):
    key = ["kind", 2]
    path = tmp_path / os.path.basename(MemoCache(str(tmp_path))._path(MemoCache.key_string(key)))
    head = MemoCache.key_string(key) + "\n"
    texts = ("[1, 2]", '"text"', "3", "null", json.dumps({"key": MemoCache.key_string(key)}), head, head + "null\n", head + "[1")
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert MemoCache(str(tmp_path)).get(key) is None, text
    path.write_text("[1, 2]", encoding="utf-8")
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "fresh") == "fresh"
    assert MemoCache(str(tmp_path)).get(key) == "fresh"  # the miss rewrote the entry


def test_a_value_that_does_not_decode_is_a_miss(tmp_path):
    # a junk polynomial, a term with no "coeff", and a list under a table key
    poly, table = ["gpgq", "GQ", "1/", 1, 2], ["dual_table", "gq"]
    no_coeff = {"vars": 1, "terms": [{"exps": [1], "beta": 0}]}
    for key, value in ((poly, "junk"), (poly, no_coeff), (table, [1, 2])):
        MemoCache(str(tmp_path)).put(key, value)
        decode = genfun._decode_tables if key is table else BetaPoly.from_json_obj
        assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "fresh", decode=decode) == "fresh", value
        assert MemoCache(str(tmp_path)).get(key) == "fresh", value  # the miss rewrote the entry


def test_a_dual_table_in_the_previous_layout_is_never_read(tmp_path, monkeypatch):
    # schema 3 kept one table of views per (flavor, ny) and one skew table per
    # (flavor, lam, ny); schema 4 keeps every alphabet's table in one value per
    # flavor (per flavor and lam), so a file in the old layout must be a miss,
    # never decoded or served
    wrong = [[[7, 7], 0, "7"]]
    old = {
        ("dual_table", "gq", 2): {"": wrong, "1": wrong, "2": wrong, "2,1": wrong},
        ("dual_skew_table", "gq", "2,1", 2): {"": wrong, "1": wrong, "2": wrong, "2,1": wrong},
    }
    texts = {}
    for key, value in old.items():
        old_key = json.dumps([3, list(key)], sort_keys=True, separators=(",", ":"))
        path = tmp_path / os.path.basename(MemoCache(str(tmp_path))._path(old_key))
        texts[path] = old_key + "\n" + json.dumps(value) + "\n"
        path.write_text(texts[path], encoding="utf-8")
    lam = StrictPartition((2, 1))
    monkeypatch.setattr(CACHE, "enabled", False)
    fresh, fresh_skew = genfun.dual_table("gq", 3, 2), genfun.dual_skew_table("gq", lam, 2)
    monkeypatch.setattr(CACHE, "enabled", True)
    monkeypatch.setattr(CACHE, "_mem", {})
    monkeypatch.setattr(CACHE, "directory", str(tmp_path))
    assert genfun.dual_table("gq", 3, 2) == fresh
    assert genfun.dual_skew_table("gq", lam, 2) == fresh_skew
    assert all(path.read_text(encoding="utf-8") == text for path, text in texts.items())
    disk = MemoCache(str(tmp_path))
    assert genfun._decode_tables(disk.get(["dual_table", "gq"]))[2] == fresh
    assert disk.get(["dual_skew_table", "gq", "2,1"]) == genfun._encode_tables({2: fresh_skew})


def test_a_directory_in_the_schema_4_layout_is_never_read(tmp_path, monkeypatch):
    # schema 4 named a file by the sha256 of its key string and wrote one JSON
    # document {"key", "value"}, replaced whole on each extension; schema 5 names
    # it by an escape of the key string: neither that file, nor one in the new
    # layout under a schema-4 key, is read
    wrong = {"2": {"": [[[7, 7], 0, "7"]], "1": [[[7, 7], 0, "7"]]}}
    old_key = json.dumps([4, ["dual_table", "gq"]], sort_keys=True, separators=(",", ":"))
    texts = {
        tmp_path / f"{hashlib.sha256(old_key.encode()).hexdigest()}.json": json.dumps({"key": old_key, "value": wrong}),
        tmp_path / os.path.basename(MemoCache(str(tmp_path))._path(old_key)): old_key + "\n" + json.dumps(wrong) + "\n",
    }
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(CACHE, "enabled", False)
    fresh = genfun.dual_table("gq", 3, 2)
    monkeypatch.setattr(CACHE, "enabled", True)
    monkeypatch.setattr(CACHE, "_mem", {})
    monkeypatch.setattr(CACHE, "directory", str(tmp_path))
    assert genfun.dual_table("gq", 3, 2) == fresh
    assert all(path.read_text(encoding="utf-8") == text for path, text in texts.items())
    assert genfun._decode_tables(MemoCache(str(tmp_path)).get(["dual_table", "gq"]))[2] == fresh


def test_file_names_are_an_injective_ascii_escape_of_the_key_string(tmp_path):
    cache = MemoCache(str(tmp_path))
    keys = (["kind", "%"], ["kind", "%25"], ["kind", "/"], ["kind", "%2f"], ["kind", "."], ["kind", ".."], ["kind", "é"], ["kind", "\\u00e9"])
    names = [os.path.basename(cache._path(MemoCache.key_string(key))) for key in keys]
    assert [unquote(name.removesuffix(".json")) for name in names] == [MemoCache.key_string(key) for key in keys]
    assert len(set(names)) == len(keys)
    assert all(re.fullmatch(r"[A-Za-z0-9,._%-]+\.json", name) for name in names), names


def lines_of(cache, key):
    with open(cache._path(cache.key_string(key)), encoding="utf-8") as fh:
        return fh.read().split("\n")


def same(value):
    return value


def test_a_table_is_created_once_then_only_its_new_entries_are_appended(tmp_path):
    key, cache = ["table", 1], MemoCache(str(tmp_path))
    table = cache.get_or_compute(key, dict)
    assert not list(tmp_path.iterdir())  # no empty table on disk
    table["1"] = {"a": 1}
    cache.store(key, table, same)
    table["1"]["b"], table["2"] = 2, {"a": 3}
    cache.store(key, table, same)
    cache.store(key, table, same)  # nothing new: nothing written
    assert lines_of(cache, key) == [cache.key_string(key), '{"1":{"a":1}}', '{"1":{"b":2},"2":{"a":3}}', ""]
    assert MemoCache(str(tmp_path)).get(key) == {"1": {"a": 1, "b": 2}, "2": {"a": 3}}


def test_a_torn_last_line_is_skipped(tmp_path):
    key, cache = ["table", 2], MemoCache(str(tmp_path))
    table = cache.get_or_compute(key, lambda: {"1": {"a": 1}})
    table["1"]["b"] = 2
    cache.store(key, table, same)
    with open(cache._path(cache.key_string(key)), "a", encoding="utf-8") as fh:
        fh.write('{"1":{"c":')  # an append cut short
    again = MemoCache(str(tmp_path))
    assert again.get(key) == {"1": {"a": 1, "b": 2}}
    assert again.get_or_compute(key, lambda: "recomputed") == {"1": {"a": 1, "b": 2}}


def test_a_line_that_does_not_read_is_a_miss_and_the_value_is_rewritten_whole(tmp_path):
    key, cache = ["table", 3], MemoCache(str(tmp_path))
    path, head = cache._path(cache.key_string(key)), cache.key_string(key)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n{"1":{"a":1}}\n{"1":{"b"\n{"2":{"a":3}}\n')
    assert cache.get(key) is None
    assert cache.get_or_compute(key, lambda: {"1": {"a": 1, "b": 2}}) == {"1": {"a": 1, "b": 2}}
    assert lines_of(cache, key) == [head, '{"1":{"a":1,"b":2}}', ""]
    with open(path, "a", encoding="utf-8") as fh:  # damaged after this cache wrote it
        fh.write('{"1"\n')
    cache.clear_memory()
    assert cache.get_or_compute(key, lambda: {"1": {"a": 1, "b": 2}}) == {"1": {"a": 1, "b": 2}}
    assert lines_of(cache, key) == [head, '{"1":{"a":1,"b":2}}', ""]
    assert not list(tmp_path.glob("*.tmp"))


def test_two_caches_extending_one_table_give_the_union(tmp_path):
    key = ["table", 4]
    MemoCache(str(tmp_path)).get_or_compute(key, lambda: {"1": {"a": 1}})
    first, second = MemoCache(str(tmp_path)), MemoCache(str(tmp_path))
    one, two = first.get_or_compute(key, dict), second.get_or_compute(key, dict)
    one["1"]["b"], one["2"] = 2, {"a": 3}
    two["1"]["c"], two["3"] = 4, {"b": 5}
    first.store(key, one, same)
    second.store(key, two, same)
    assert MemoCache(str(tmp_path)).get(key) == {"1": {"a": 1, "b": 2, "c": 4}, "2": {"a": 3}, "3": {"b": 5}}


def test_a_key_too_long_for_a_file_name_is_kept_in_memory_only(tmp_path):
    key, cache = ["kind", "x" * 300], MemoCache(str(tmp_path))
    assert cache._path(cache.key_string(key)) is None
    assert cache.get_or_compute(key, lambda: {"1": {"a": 1}}) == {"1": {"a": 1}}
    assert cache.get_or_compute(key, lambda: "again") == {"1": {"a": 1}}
    cache.put(key, "value")
    assert cache.get(key) is None
    assert not list(tmp_path.iterdir())
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "again") == "again"


def test_a_cache_dir_switch_within_one_process_keeps_each_file_whole(tmp_path, monkeypatch):
    # what the cache knows a file to hold is kept per path: back in a directory
    # after a switch, the table is extended by what that file lacks, not by
    # what the other directory's file lacked
    monkeypatch.setattr(CACHE, "enabled", False)
    fresh = {ny: genfun.dual_table("gq", 6, ny) for ny in (2, 3)}
    monkeypatch.setattr(CACHE, "enabled", True)
    for name in ("_mem", "_held"):
        monkeypatch.setattr(CACHE, name, {})
    monkeypatch.setattr(CACHE, "directory", None)
    for name, S, ny in (("one", 4, 2), ("two", 5, 2), ("one", 6, 2), ("two", 6, 3)):
        CACHE.configure(directory=str(tmp_path / name))
        assert genfun.dual_table("gq", S, ny) == {mu: fresh[ny][mu] for mu in genfun.enumerate_strict_partitions(S)}
    tables = {name: genfun._decode_tables(MemoCache(str(tmp_path / name)).get(["dual_table", "gq"])) for name in ("one", "two")}
    assert tables == {"one": {2: fresh[2]}, "two": fresh}
