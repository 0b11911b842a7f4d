"""Benchmark harness for the kshift CLI.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 bench/run.py --workload all [--seed N] [--seconds S]

Each job is a real `kshift` CLI invocation in a fresh process, one at a time,
with the in-memory memo on and no disk cache (only `cli-cache` passes
--cache-dir).  A round runs the workload's job list twice: the cold pass, then
the warm pass.  In `cli-cache` the two passes share one fresh --cache-dir, so
the warm pass reads what the cold pass wrote; elsewhere nothing persists
between processes and the warm pass repeats the cold one.  Rounds repeat for
about --seconds seconds and every end-to-end metric is the median over rounds.

--trace 1 runs two traced rounds, whose counts must be identical, and fills
the rest of --seconds with untraced rounds for the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with every end-to-end metric of BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1).  The line before it holds the machine
details, the seed and any failed job.  `--workload all` runs every workload
both ways and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 2
TRACED_ROUNDS = 2


@dataclass
class Execution:
    """One job process: what it printed, how it exited and what it cost."""

    job: workloads.Job
    stdout: bytes
    rc: int
    wall_s: float
    setup_s: float
    rss_mb: float
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Round:
    cold: list[Execution]
    warm: list[Execution]

    @property
    def executions(self) -> list[Execution]:
        return self.cold + self.warm

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": sum(e.wall_s for e in self.executions),
            "setup_s": sum(e.setup_s for e in self.executions),
            "peak_rss_mb": max(e.rss_mb for e in self.executions),
            "cold_pass_s": sum(e.wall_s for e in self.cold),
            "warm_pass_s": sum(e.wall_s for e in self.warm),
        }


def child_env() -> dict[str, str]:
    """The job environment: kshift from this checkout, no KSHIFT_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KSHIFT_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # jobs load bytecode, as an installed kshift does
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # fixes set iteration order, so traced counts repeat
    return env


class Runner:
    """Spawns job processes and checks what each one printed."""

    def __init__(self, tmp: Path, digests: dict[str, str] | None):
        self.tmp = tmp
        self.digests = digests
        self.env = child_env()
        self.count = 0

    def spawn(self, job: workloads.Job, trace: bool, extra: tuple[str, ...] = ()) -> Execution:
        self.count += 1
        record = self.tmp / f"job{self.count}.json"
        cmd = [sys.executable, str(BENCH / "job.py"), str(record), "1" if trace else "0", "--", *job.argv, *extra]
        with open(self.tmp / f"job{self.count}.err", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        ex = Execution(job, stdout, proc.returncode, ended - spawned, 0.0, usage.ru_maxrss / 1024)
        try:
            with open(record, "r", encoding="utf-8") as fh:
                ex.setup_s = json.load(fh)["ready"] - spawned
        except (OSError, ValueError, KeyError):
            ex.problems.append("the job wrote no record")
        if trace and not ex.problems:
            with open(str(record) + ".trace", "r", encoding="utf-8") as fh:
                ex.trace = json.load(fh)
            spans = tracer.load_spans(str(record) + ".trace", ex.trace["nspans"])
            ex.trace["self_s"] = tracer.self_times(ex.trace["names"], *spans)
            ex.trace["span_counts"] = Counter(ex.trace["names"][nid] for nid in spans[0])
        self.check(ex)
        stderr = (self.tmp / f"job{self.count}.err").read_text(errors="replace")
        if ex.problems and stderr:
            ex.problems.append("stderr: " + stderr[-300:])
        return ex

    def check(self, ex: Execution) -> None:
        if ex.rc != 0:
            ex.problems.append(f"exit code {ex.rc}")
        if self.digests is not None:
            expected = self.digests.get(ex.job.key)
            if expected is None:
                ex.problems.append("no recorded digest")
            elif hashlib.sha256(ex.stdout).hexdigest() != expected:
                ex.problems.append("stdout digest differs from the recorded one")
        if ex.job.verify:
            try:
                status = json.loads(ex.stdout)["status"]
            except (ValueError, KeyError, TypeError):
                status = None
            if status != "PASS":
                ex.problems.append(f"verify status {status!r}, not PASS")

    def round(self, work: workloads.Workload, trace: bool) -> Round:
        extra: tuple[str, ...] = ()
        cache_dir = self.tmp / f"cache{self.count}"
        if work.disk_cache:
            extra = ("--cache-dir", str(cache_dir))
        cold = [self.spawn(job, trace, extra) for job in work.jobs]
        warm = [self.spawn(job, trace, extra) for job in work.jobs]
        shutil.rmtree(cache_dir, ignore_errors=True)
        for c, w in zip(cold, warm):
            if c.stdout != w.stdout:
                w.problems.append("warm-pass stdout differs from the cold pass")
        return Round(cold, warm)


def timed_rounds(runner: Runner, work: workloads.Workload, seconds: float, min_rounds: int) -> list[Round]:
    """Untraced rounds, at least `min_rounds`, until the run is within half a round of `seconds`."""
    rounds: list[Round] = []
    begun = time.monotonic()
    while True:
        rounds.append(runner.round(work, trace=False))
        elapsed = time.monotonic() - begun
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def median_metrics(rounds: list[Round]) -> dict[str, float]:
    per_round = [r.end_to_end() for r in rounds]
    return {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}


def traced_executions(rnd: Round) -> list[Execution]:
    """The round's executions that wrote a trace; the others are failed jobs."""
    return [ex for ex in rnd.executions if ex.trace is not None]


def round_counts(rnd: Round) -> Counter:
    counts: Counter = Counter()
    for ex in traced_executions(rnd):
        counts.update(ex.trace["counts"])
        counts["cli.stdout_bytes"] += len(ex.stdout)
        # span counts per name are not metrics, but they must repeat too
        counts.update({f"spans.{name}": n for name, n in ex.trace["span_counts"].items()})
    return counts


def round_times(rnd: Round) -> dict[str, float]:
    """Per-layer times of one traced round: self time per span, summed over jobs."""
    self_s: Counter = Counter()
    for ex in traced_executions(rnd):
        self_s.update(ex.trace["self_s"])
    times = {metric: self_s[span] for span, metric in tracer.SPAN_METRICS.items()}
    checks = {n[len(tracer.CHECK_SPAN):]: s for n, s in self_s.items() if n.startswith(tracer.CHECK_SPAN)}
    times["identities.check_s"] = sum(checks.values())
    for check_id, s in checks.items():
        times[f"identities.check_s.{check_id}"] = s
    times["cli.import_s"] = sum(ex.setup_s for ex in rnd.executions)
    times["trace.wall_s"] = sum(ex.wall_s for ex in rnd.executions)
    return times


def layer_metrics(traced: list[Round], untraced_wall_s: float, names: list[str]) -> dict[str, float]:
    counts = [round_counts(r) for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        diff = {k: [c.get(k) for c in counts] for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1}
        raise SystemExit(f"bench: traced counts differ between rounds: {json.dumps(diff, sort_keys=True)}")
    times = [round_times(r) for r in traced]
    values: dict[str, float] = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = statistics.median(t["trace.wall_s"] for t in times) - untraced_wall_s
        elif name in times[0] or name.startswith("identities.check_s."):
            values[name] = statistics.median(t.get(name, 0.0) for t in times)
        elif name.endswith("_s"):
            raise SystemExit(f"bench: no span measures per-layer metric {name!r}")
        else:
            values[name] = counts[0].get(name, 0)
    return values


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, cwd=ROOT)
            sha = done.stdout.strip() or sha
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path, spec: dict) -> tuple[dict, dict]:
    """Run one workload; return (details line, result line)."""
    work = workloads.workload(name, seed)
    runner = Runner(tmp, workloads.load_digests())
    if trace:
        begun = time.monotonic()
        traced = [runner.round(work, trace=True) for _ in range(TRACED_ROUNDS)]
        left = seconds - (time.monotonic() - begun)
        untraced = timed_rounds(runner, work, left, min_rounds=1)
        wall = median_metrics(untraced)["wall_s"]
        rounds = traced + untraced
        metric_specs = spec["per_layer"]
        values = layer_metrics(traced, wall, [m["name"] for m in metric_specs])
    else:
        rounds = timed_rounds(runner, work, seconds, MIN_ROUNDS)
        metric_specs = spec["end_to_end"]
        medians = median_metrics(rounds)
        values = {m["name"]: medians[m["name"]] for m in metric_specs}
    executions = [ex for r in rounds for ex in r.executions]
    failures = [{"job": ex.job.key, "problems": ex.problems} for ex in executions if ex.problems]
    details = {
        "workload": name,
        "trace": int(trace),
        "rounds": len(rounds),
        "per_round": [r.end_to_end() for r in rounds],
        "requests": [job.key for job in work.jobs],
        "machine": machine(seed),
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": len(executions),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    return details, result


def warm_up() -> None:
    """Compile kshift's bytecode once, so no timed job pays for it."""
    subprocess.run([sys.executable, "-c", "import kshift.cli"], cwd=ROOT, env=child_env(), check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kshift" / "cli.py").is_file():
        print(f"bench: no kshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    tmp = ROOT / ".bench_tmp" / f"run{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        warm_up()
        if args.workload != "all":
            details, result = measure(args.workload, args.seed, seconds, bool(args.trace), tmp, spec)
            print(json.dumps(details, sort_keys=True))
            print(json.dumps(result))
            return 0
        ok = True
        for name in workloads.NAMES:
            for trace in (False, True):
                details, result = measure(name, args.seed, seconds, trace, tmp, spec)
                ok = ok and result["correct"]
                print(f"# {name} trace={int(trace)} rounds={details['rounds']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for metric, v in result["metrics"].items():
                    print(f"{name}\t{metric}\t{v['value']:.6g}\t{v['unit']}")
        print(json.dumps({"correct": ok, "machine": machine(args.seed)}))
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
