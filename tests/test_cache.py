import hashlib
import json

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
    stale = tmp_path / f"{hashlib.sha256(old.encode()).hexdigest()}.json"
    stale.write_text(json.dumps({"key": old, "value": "stale"}), encoding="utf-8")
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "fresh") == "fresh"
    assert MemoCache(str(tmp_path)).get_or_compute(key, lambda: "again") == "fresh"


def test_a_file_holding_no_json_object_is_a_miss(tmp_path):
    key = ["kind", 2]
    path = tmp_path / f"{hashlib.sha256(MemoCache.key_string(key).encode()).hexdigest()}.json"
    for text in ("[1, 2]", '"text"', "3", "null", json.dumps({"key": MemoCache.key_string(key)})):
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
        path = tmp_path / f"{hashlib.sha256(old_key.encode()).hexdigest()}.json"
        texts[path] = json.dumps({"key": old_key, "value": value})
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
