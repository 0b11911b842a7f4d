import argparse
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kshift import cache, cli, genfun, identities
from kshift.cli import build_parser, main
from kshift.polyring import BetaPoly
from kshift.shapes import StrictPartition


@pytest.fixture(autouse=True)
def isolated_cache():
    """CLI runs mutate the process-global cache; restore it per test."""
    saved_dir, saved_enabled = cache.CACHE.directory, cache.CACHE.enabled
    yield
    cache.CACHE.configure(directory=saved_dir or "", enabled=saved_enabled)
    cache.CACHE.directory = saved_dir


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_examples(capsys):
    code, out = run_cli(capsys, "compute", "--func", "GQ", "--outer", "1", "--vars", "1", "--max-deg", "2")
    assert code == 0 and out.strip() == "2*x1 + b*x1^2"
    code, out = run_cli(capsys, "compute", "--func", "GP", "--outer", "")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "compute", "--func", "gp", "--outer", "2,1", "--vars", "2")
    assert code == 0 and "x1^2*x2" in out


def test_compute_json_and_text_agree(capsys):
    code, text_out = run_cli(capsys, "compute", "--func", "GQ", "--outer", "2", "--vars", "2", "--max-deg", "4")
    code2, json_out = run_cli(
        capsys, "compute", "--func", "GQ", "--outer", "2", "--vars", "2", "--max-deg", "4", "--format", "json"
    )
    assert code == code2 == 0
    obj = json.loads(json_out)
    assert obj["vars"] == 2
    assert any(t["coeff"] == "2" and t["exps"] == [2, 0] for t in obj["terms"])
    assert "2*x1^2" in text_out


def test_compute_beta_specialization(capsys):
    code, out = run_cli(
        capsys, "compute", "--func", "GQ", "--outer", "1", "--vars", "1", "--max-deg", "3", "--beta", "1"
    )
    assert code == 0 and out.strip() == "2*x1 + 1*x1^2"


def test_expand_examples(capsys):
    code, out = run_cli(
        capsys, "expand", "--target", "GQ", "--basis", "GP", "--outer", "3,2",
        "--vars", "3", "--max-deg", "8", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["residual_zero"] is True
    table = {c["index"]: c["beta"] for c in obj["coeffs"]}
    assert table == {"3,2": [4], "4,2": [0, 2], "4,3": [0, 0, -1]}
    code, out = run_cli(
        capsys, "expand", "--target", "GP", "--basis", "GP", "--outer", "2,1", "--vars", "2", "--max-deg", "6",
        "--format", "json",
    )
    obj = json.loads(out)
    assert code == 0 and {c["index"]: c["beta"] for c in obj["coeffs"]} == {"2,1": [1]}
    code, out = run_cli(
        capsys, "expand", "--target", "gq", "--basis", "gp", "--outer", "3", "--vars", "2", "--max-deg", "6",
        "--format", "json",
    )
    obj = json.loads(out)
    assert code == 0 and {c["index"]: c["beta"] for c in obj["coeffs"]} == {"3": [2], "2": [0, 1]}


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--id", "overlap-matrix", "--max-part", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "PASS" and report["witness"] is None


def test_verify_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"id": "overlap-matrix", "params": {"max_part": 3}},
                {"id": "onerow-series", "params": {"max_power": 1, "nvars": 1, "max_deg": 3}},
            ]
        )
    )
    code, out = run_cli(capsys, "verify", "--manifest", str(manifest), "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["status"] for r in lines] == ["PASS", "PASS"]


def test_verify_manifest_bad_records(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    good = {"id": "overlap-matrix", "params": {"max_part": 3}}
    manifest.write_text(json.dumps([good, {"params": {}}, {"id": "flip", "params": {"max_size": -1}}, good]))
    code, out = run_cli(capsys, "verify", "--manifest", str(manifest), "--format", "json")
    assert code == 2
    assert [json.loads(line)["status"] for line in out.strip().splitlines()] == ["PASS", "ERROR", "ERROR", "PASS"]
    manifest.write_text(json.dumps(good))  # top level is not a list
    assert run_cli(capsys, "verify", "--manifest", str(manifest)) == (2, "")
    assert main(["verify", "--manifest", str(tmp_path / "missing.json")]) == 2


def test_verify_flags_are_the_check_parameters():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    common = {"help", "cache_dir", "no_cache", "config", "format", "id", "manifest"}
    flags = {a.dest for a in sub.choices["verify"]._actions} - common
    params = set()
    for check in identities.CHECKS.values():
        params |= set(inspect.signature(check).parameters)
    assert flags == params
    with pytest.raises(SystemExit) as info:
        main(["verify", "--id", "flip", "--jobs", "2"])
    assert info.value.code == 2


FOOTPRINT = """
import sys
base = set(sys.modules)
import kshift.cli
imported = set(sys.modules) - base
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    rc = kshift.cli.main(["compute", "--func", "JQ", "--outer", "3", "--vars", "3", "--max-deg", "5", "--format", "json"])
computed = sorted(set(sys.modules) - base)
cached = ["compute", "--func", "jq", "--outer", "2,1", "--vars", "2", "--max-deg", "4", "--cache-dir", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [kshift.cli.main(cached), kshift.cache.CACHE.clear_memory(), kshift.cli.main(cached)]  # a write, then a read
print(json.dumps({"rc": rc, "import": sorted(imported), "compute": computed, "cached_rcs": rcs, "cached": sorted(set(sys.modules) - base)}))
"""


def test_import_footprint(tmp_path):
    # a fresh interpreter; what `site` loads at start-up is the baseline and does not count
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("KSHIFT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["rc"] == 0
    assert not {"dataclasses", "inspect", "fractions", "decimal", "hashlib", "tempfile"} & set(got["import"])
    # a compute without --beta and without a disk cache builds no rational and hashes no key
    assert not {"fractions", "hashlib"} & set(got["compute"])
    # nor does one with a disk cache, writing or reading: its files are named without a hash
    assert got["cached_rcs"] == [0, None, 0] and list(tmp_path.glob("*.json"))
    assert "hashlib" not in got["cached"]


def test_the_cli_cache_requests_replace_or_unlink_no_cache_file(tmp_path, monkeypatch, capsys):
    # the seed-0 cli-cache round in-process, each request with a cold memory: a
    # file is created once (renamed onto a name not taken yet) and then only
    # appended to, and every output is the one the benchmark recorded
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    digests, jobs = workloads.load_digests(), workloads.cli_cache_requests(0)
    for name in ("_mem", "_held"):
        monkeypatch.setattr(cache.CACHE, name, {})
    monkeypatch.setattr(cache.CACHE, "directory", None)
    targeted = []
    for name in ("replace", "unlink"):
        def spy(*args, real=getattr(os, name)):
            targeted.append((args[-1], os.path.exists(args[-1])))
            return real(*args)

        monkeypatch.setattr(os, name, spy)
    outputs = []
    for _ in ("cold", "warm"):
        for job in jobs:
            cache.CACHE.clear_memory()
            code, out = run_cli(capsys, *job.argv, "--cache-dir", str(tmp_path))
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digests[job.key], job.key
            outputs.append(out)
    assert outputs[: len(jobs)] == outputs[len(jobs) :]
    assert targeted and not [path for path, existed in targeted if existed]
    assert not list(tmp_path.glob("*.tmp"))


def test_enumerate_examples(capsys):
    code, out = run_cli(
        capsys, "enumerate", "--family", "setshyt-q", "--outer", "1", "--max-value", "1", "--count-only"
    )
    assert code == 0 and out.strip() == "3"
    code, out = run_cli(
        capsys, "enumerate", "--family", "shrpp-p", "--outer", "2,1", "--max-value", "2", "--count-only"
    )
    assert code == 0 and out.strip() == "5"
    code, out = run_cli(
        capsys, "enumerate", "--family", "shyt-p", "--outer", "2,1", "--inner", "2,1", "--max-value", "2"
    )
    assert code == 0 and out.strip() == ""


def test_usage_errors_exit_2(capsys):
    assert main(["compute", "--func", "GP", "--outer", "2,3"]) == 2  # not strict
    assert main(["enumerate", "--family", "nope", "--outer", "1", "--max-value", "1"]) == 2
    assert main(["verify"]) == 2  # neither --id nor --manifest
    assert main(["compute", "--func", "GQ", "--outer", "1", "--beta", "1/0"]) == 2  # a zero denominator
    assert main(["compute", "--func", "GQ", "--outer", "1", "--beta", "one"]) == 2  # not a rational


@pytest.mark.parametrize("outer, inner", [("a", ""), ("3,2", "1,x")])
def test_a_part_that_is_not_an_integer_is_a_usage_error(capsys, outer, inner):
    code = main(["compute", "--func", "GQ", "--outer", outer, "--inner", inner, "--vars", "2", "--max-deg", "5"])
    assert code == 2 and "parts must be integers" in capsys.readouterr().err
    assert main(["enumerate", "--family", "shyt-q", "--outer", "a", "--max-value", "1"]) == 2


def test_unreadable_manifest_and_config_are_usage_errors(tmp_path, capsys):
    manifest, config = tmp_path / "manifest.json", tmp_path / "kshift.conf"
    manifest.write_text("[{", encoding="utf-8")
    config.write_bytes(b"format=\xff\n")
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert main(["--config", str(config), "compute", "--func", "GP", "--outer", "1", "--vars", "1"]) == 2
    err = capsys.readouterr().err
    assert "is not JSON" in err and "is not UTF-8 text" in err


def test_a_value_error_inside_a_handler_is_not_a_usage_error(monkeypatch):
    # a plain ValueError is an internal fault: it surfaces, never exit 2
    def broken(args, settings):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "cmd_compute", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["compute", "--func", "GQ", "--outer", "1", "--vars", "1", "--max-deg", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--func", "schur", "--outer", "2,1", "--inner", "1"),
        ("compute", "--func", "gp", "--outer", "2,1", "--doubleslash"),
        ("expand", "--target", "jq", "--basis", "jp", "--outer", "2,1", "--doubleslash"),
        ("enumerate", "--family", "shyt_q", "--outer", "2,1", "--max-value", "2", "--deg-cap", "1", "--count-only"),
        ("enumerate", "--family", "shrpp_q", "--outer", "2,1", "--max-value", "2", "--deg-cap", "1", "--count-only"),
        ("enumerate", "--family", "shbt_q", "--outer", "2,1", "--max-value", "2", "--deg-cap", "1", "--count-only"),
    ],
)
def test_meaningless_flags_are_usage_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--func", "GQ", "--outer", "2", "--vars", "-1"),
        ("compute", "--func", "GP", "--outer", "2", "--max-deg", "-1"),
        ("compute", "--func", "gq", "--outer", "2", "--vars", "0"),
        ("expand", "--target", "GQ", "--basis", "GP", "--outer", "2", "--vars", "-1"),
        ("verify", "--id", "onerow-series", "--max-power", "-1"),
        ("verify", "--id", "overlap-matrix", "--max-part", "-1"),
        ("verify", "--id", "flip", "--nvars", "0"),
        ("verify", "--id", "skew-expansions", "--nvars", "0"),
        ("verify", "--id", "onerow-series", "--nvars", "0"),
        ("verify", "--id", "gq-to-gp", "--max-size", "0", "--nvars", "0"),
        ("verify", "--id", "dual-expansions", "--ny", "0"),
        ("verify", "--id", "dual-expansions", "--ny", "-1"),
        ("verify", "--id", "cauchy", "--max-deg", "-1"),
        ("verify", "--id", "coproducts", "--max-deg", "-1"),
        ("enumerate", "--family", "setshyt_q", "--outer", "2", "--max-value", "2", "--deg-cap", "-1", "--count-only"),
        ("enumerate", "--family", "setshyt_q", "--outer", "2", "--max-value", "-1", "--count-only"),
        ("verify", "--id", "cauchy", "--nx", "0"),
        ("verify", "--id", "cauchy", "--ny", "0"),
        ("verify", "--id", "coproducts", "--nx", "0"),
        ("verify", "--id", "coproducts", "--ny", "0"),
    ],
)
def test_nonsense_sizes_are_usage_errors(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "must be at least" in captured.err
    nonsense = [a for a in argv if a.lstrip("-").isdigit() and int(a) < 1]
    assert f"got {nonsense[-1]}" in captured.err  # the message names the value given, not a derived one


def test_a_bad_schur_index_is_a_usage_error(capsys):
    code = main(["compute", "--func", "schur", "--outer", "1,2"])
    assert code == 2 and "not a partition: (1, 2)" in capsys.readouterr().err


def test_a_bare_memory_error_is_a_resource_error_with_a_message(capsys, monkeypatch):
    def exhausted(args, settings):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_compute", exhausted)
    code = main(["compute", "--func", "GQ", "--outer", "1"])
    assert code == 3 and capsys.readouterr().err.strip() == "resource error: out of memory in compute"


def test_gq_to_gp_names_nvars(capsys):
    code = main(["verify", "--id", "gq-to-gp", "--max-size", "0", "--nvars", "0"])
    err = capsys.readouterr().err
    assert code == 2 and "nvars" in err and "max_value" not in err


@pytest.mark.parametrize("check_id", ["cauchy", "coproducts"])
@pytest.mark.parametrize("flag", ["nx", "ny"])
def test_two_alphabet_checks_name_nx_and_ny(capsys, check_id, flag):
    code = main(["verify", "--id", check_id, f"--{flag}", "0"])
    err = capsys.readouterr().err
    assert code == 2 and f"{flag} must be at least 1, got 0" in err


MAX_SIZE_CHECKS = ["gq-to-gp", "skew-expansions", "flip", "coproducts", "cauchy", "dual-expansions", "symmetrization", "conjectures"]


def test_max_size_checks_are_listed():
    takes = [cid for cid, check in identities.CHECKS.items() if "max_size" in inspect.signature(check).parameters]
    assert sorted(takes) == sorted(MAX_SIZE_CHECKS)


@pytest.mark.parametrize("check_id", MAX_SIZE_CHECKS)
def test_negative_max_size_is_a_usage_error(capsys, check_id):
    code = main(["verify", "--id", check_id, "--max-size", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "max_size must be at least 0, got -1" in captured.err


def test_asymmetric_input_is_a_usage_error_and_an_asymmetric_dual_a_math_error(capsys, monkeypatch):
    x1 = BetaPoly.variable(1, 3, 3)
    monkeypatch.setattr(cli, "_evaluate", lambda func, args: x1)
    code = main(["expand", "--target", "GQ", "--basis", "GP", "--outer", "1", "--vars", "3", "--max-deg", "3"])
    assert code == 2 and "error: input polynomial is not symmetric" in capsys.readouterr().err
    monkeypatch.undo()
    # a dual-table view the skew-dual peel cannot explain is an internal fault: exit 1
    lam, stray = StrictPartition((2, 1)), {((1, 1, 1), 0): 1}  # (1, 1) is no gp index
    corrupt_dual_view(monkeypatch, lam, 3, stray)
    code = main(["compute", "--func", "gp", "--outer", "2,1", "--inner", "1", "--vars", "1", "--no-cache"])
    assert code == 1 and "split expansion has a nonzero residual in basis gp" in capsys.readouterr().err


def corrupt_dual_view(monkeypatch, lam, ny, stray):
    """Add the stray terms to the dual-table view of lam in ny variables the engine reads."""
    real = genfun._dual_views

    def views(flavor, S, n):
        table = real(flavor, S, n)
        return {**table, lam: {**table[lam], **stray}} if n == ny else table

    monkeypatch.setattr(genfun, "_dual_views", views)


def test_an_asymmetric_dual_under_omega_is_a_math_error(capsys, monkeypatch):
    # jp/jq's omega peels an engine view, so a term off the partitions is an internal fault: exit 1
    corrupt_dual_view(monkeypatch, StrictPartition((2, 1)), 3, {((0, 1, 0), 0): 1})
    code = main(["compute", "--func", "jq", "--outer", "2,1", "--vars", "3", "--no-cache"])
    assert code == 1 and "nonzero Schur residual" in capsys.readouterr().err


def test_cache_transparency(tmp_path, capsys):
    cache.CACHE.clear_memory()
    args = ["compute", "--func", "GQ", "--outer", "2,1", "--vars", "2", "--max-deg", "5", "--format", "json"]
    code1, out1 = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    code2, out2 = run_cli(capsys, "--cache-dir", str(tmp_path), *args)  # warm cache
    code3, out3 = run_cli(capsys, "--no-cache", *args)
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert list(tmp_path.glob("*.json"))


def test_no_cache_turns_off_the_disk_layer_only(tmp_path, capsys, monkeypatch):
    args = ["compute", "--func", "GQ", "--outer", "2,1", "--vars", "2", "--max-deg", "5", "--format", "json"]
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    cache.CACHE.configure(directory=str(env_dir))  # as KSHIFT_CACHE_DIR sets it at import
    monkeypatch.setenv("KSHIFT_CACHE_DIR", str(env_dir))
    cache.CACHE.put(["probe"], 1)
    code, out = run_cli(capsys, "--no-cache", "--cache-dir", str(flag_dir), *args)
    assert code == 0 and json.loads(out)["vars"] == 2
    assert not flag_dir.exists()
    assert len(list(env_dir.glob("*.json"))) == 1  # only the probe written before the run
    assert cache.CACHE.directory is None
    assert cache.CACHE.enabled and cache.CACHE._mem  # the run's values stay memoized in memory


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    config = tmp_path / "kshift.conf"
    config.write_text("format=json\n")
    code, out = run_cli(
        capsys, "--config", str(config), "compute", "--func", "GP", "--outer", "1", "--vars", "1", "--max-deg", "2"
    )
    assert code == 0
    assert json.loads(out)["vars"] == 1
    env_dir = tmp_path / "env-cache"
    monkeypatch.setenv("KSHIFT_CACHE_DIR", str(env_dir))
    code, out = run_cli(capsys, "compute", "--func", "GQ", "--outer", "3", "--vars", "2", "--max-deg", "4")
    assert code == 0 and list(env_dir.glob("*.json"))


@pytest.mark.parametrize(
    "text", [None, "jobs=2\n", "format=xml\n", "# comment\nformat\n", "cache_dir=/tmp\nnvars=3\n"]
)
def test_bad_config_is_a_usage_error(tmp_path, capsys, text):
    config = tmp_path / "kshift.conf"
    if text is not None:
        config.write_text(text)
    code = main(["--config", str(config), "compute", "--func", "GP", "--outer", "1", "--vars", "1"])
    assert code == 2 and "config" in capsys.readouterr().err


HELP_AND_USAGE = [
    # argv, exit code, sha256 of stdout, sha256 of stderr: the bytes at 80 columns
    (("--help",), 0, "19d6b032f0595c8478bea43a19b94bfab2fb6443122b552c731f7415c2d5b3d6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("compute", "--help"), 0, "c7cf48faea880b25251f058a1910204fd4f30ccc59f56a6e15dbf89b22cf7177", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("expand", "--help"), 0, "e185eb34aa52b08baacfe71495af40c7063b7e0917b02527c846652cd0afe0a8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "--help"), 0, "27e9bb26de54cfa0e7f4eb578fb4ee1710b1c64de74660bcb95d159f56bd4f99", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("enumerate", "--help"), 0, "6b00430d1ca5b009fa3e67d365d58c7d746d45253dcb8521db8c2bdd8d37bfa2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "10d1553dab6aedf7b6a1c850286d06e19a0d5bde348ed06925ba7d204e3a8c6b"),
    (("compute", "--outer", "1"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "9dd0af14e65ba9e015d163eed9599dc83e9b3e2dc0c7bca3ef6e29233e600661"),
    (("compute", "--func", "GQ", "--outer", "1", "--vars", "two"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6fd2b3ac066233318e210d9b8688ac7f7576015c2573c855c6f0130a8dc36470"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the bytes are argparse's on Python 3.11; its layout differs between versions")
@pytest.mark.parametrize("argv, code, out, err", HELP_AND_USAGE)
def test_help_and_usage_errors_print_pinned_bytes(capsys, monkeypatch, argv, code, out, err):
    # `kshift --help`, each `kshift <cmd> --help` and three usage errors, byte for byte:
    # building the parser another way must print the same
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    printed = capsys.readouterr()
    assert exit_info.value.code == code
    assert hashlib.sha256(printed.out.encode()).hexdigest() == out, printed.out
    assert hashlib.sha256(printed.err.encode()).hexdigest() == err, printed.err


def test_a_request_past_the_work_bound_exits_3_at_once():
    # GQ_{3,1} in 40 variables to degree 30 has C(70, 40) - C(43, 40) possible exponent vectors:
    # refused before any work, with the estimate, not left to run until it is killed (the
    # child gets 1 GiB of address space and 20 s, so a request that does run stays small)
    import resource

    def small():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cmd = [sys.executable, "-m", "kshift.cli", "compute", "--func", "GQ", "--outer", "3,1", "--vars", "40", "--max-deg", "30"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=20, preexec_fn=small)
    assert done.returncode == 3
    assert done.stderr == "resource error: GQ of 3,1/ in 40 variables to degree 30: 55347740058143494787 possible terms, above 10000000\n"
