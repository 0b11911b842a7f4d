"""Fast tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_generator_repeats_for_a_seed():
    assert workloads.cli_cache_requests(7) == workloads.cli_cache_requests(7)
    assert workloads.cli_cache_requests(7) != workloads.cli_cache_requests(8)
    assert len(workloads.cli_cache_requests(7)) == workloads.CLI_CACHE_REQUESTS


def test_every_request_has_a_digest_and_keeps_its_top_degree():
    digests = workloads.load_digests()
    pool = set(workloads.request_pool())
    for seed in range(50):
        for job in workloads.cli_cache_requests(seed):
            assert job in pool
            assert job.key in digests
            argv = dict(zip(job.argv[1::2], job.argv[2::2]))
            size = sum(int(p) for p in argv["--outer"].split(","))
            assert int(argv["--max-deg"]) >= size
    for jobs in workloads.FIXED.values():
        assert all(job.key in digests for job in jobs)


def test_self_times_of_nested_spans_sum_to_the_parent():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    names = ["root", "a", "b", "c"]
    name_of = array("i", [0, 1, 2, 3])
    parent = array("i", [-1, 0, 1, 0])
    start = array("d", [0.0, 1.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0])
    assert tracer.self_times(names, name_of, parent, start, end) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}


@pytest.fixture()
def runner(tmp_path):
    run.warm_up()
    return run.Runner(tmp_path, digests=None)


def traced(runner, *argv):
    ex = runner.spawn(workloads.Job(tuple(argv), verify=True), trace=True)
    assert ex.problems == []
    return ex


def test_wrappers_reach_calls_made_from_identities(runner):
    ex = traced(runner, "verify", "--id", "flip", "--max-size", "2", "--nvars", "2", "--max-deg", "3", "--format", "json")
    counts = ex.trace["counts"]
    assert counts["genfun.gpgq_builds"] > 0
    assert counts["genfun.gpgq_builds"] == counts["cache.misses.gpgq"]
    assert counts["identities.cases"] > 0
    assert counts["tableaux.genfun_calls"] > 0

    ex = traced(runner, "verify", "--id", "gq-to-gp", "--max-size", "2", "--nvars", "2", "--max-deg", "3", "--format", "json")
    assert ex.trace["counts"]["tableaux.iter_yielded"] > 0
    assert ex.trace["counts"]["tableaux.restricted_yielded"] > 0


def test_traced_self_times_account_for_the_whole_job(tmp_path, runner):
    ex = traced(runner, "verify", "--id", "flip", "--max-size", "2", "--nvars", "2", "--max-deg", "3", "--format", "json")
    record = next(tmp_path.glob("*.json.trace"))
    names = ex.trace["names"]
    name_of, parent, start, end = tracer.load_spans(str(record), ex.trace["nspans"])
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    for i in range(len(start)):
        assert child[i] <= end[i] - start[i] + 1e-9
    roots = [i for i, p in enumerate(parent) if p < 0]
    assert [names[name_of[i]] for i in roots] == ["cli.main"]
    main_s = end[roots[0]] - start[roots[0]]
    assert sum(ex.trace["self_s"].values()) == pytest.approx(main_s)


def test_traced_counts_must_repeat():
    def fake_round(count):
        ex = run.Execution(workloads.Job(("x",)), b"", 0, 1.0, 0.1, 1.0)
        ex.trace = {"counts": {"polyring.mul_calls": count}, "self_s": {}, "span_counts": {}}
        return run.Round([ex], [])

    with pytest.raises(SystemExit, match="differ"):
        run.layer_metrics([fake_round(1), fake_round(2)], 1.0, ["polyring.mul_calls"])
    assert run.layer_metrics([fake_round(3), fake_round(3)], 1.0, ["polyring.mul_calls"]) == {"polyring.mul_calls": 3}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cauchy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
