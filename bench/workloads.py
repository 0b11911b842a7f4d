"""The benchmark's workloads: which kshift CLI jobs each one runs.

`cauchy` and `enumeration` are fixed sweeps; the seed changes only
`cli-cache`, whose requests are drawn from `request_pool()`.  Every job and
every pool request has its expected stdout digest in digests.json, written by
record.py, so outputs are checked for any seed.  Every job is an exact
identity or a plain computation, so its expected exit code is 0.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    verify: bool = False  # a `verify` job must also report PASS

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    disk_cache: bool  # both passes of a round share one fresh --cache-dir


def verify(check_id: str) -> Job:
    return Job(("verify", "--id", check_id, "--format", "json"), verify=True)


FIXED = {
    # L0 BetaPoly arithmetic does nearly all the work, enumeration almost none.
    "cauchy": (verify("cauchy"),),
    # L1 enumeration (gq-to-gp) and the L2 dual-table solve; L0 does little.
    "enumeration": (
        verify("gq-to-gp"),
        Job(("compute", "--func", "gq", "--outer", "4,3,2,1", "--vars", "4", "--max-deg", "10", "--format", "json")),
    ),
}

# The cli-cache request space: straight strict shapes of size 2..5 in 2 or 3
# variables.  --max-deg is |lambda| plus 0..2, never below |lambda|, so every
# dual and j-function keeps its top degree and every expansion is exact.
SHAPES = ("2", "3", "2,1", "4", "3,1", "5", "4,1", "3,2")
VARS = (2, 3)
EXTRA_DEG = (0, 1, 2)
COMPUTE_FUNCS = ("GP", "GQ", "gp", "gq", "jp", "jq", "JP", "JQ", "P", "Q")
# JQ -> GQ is not an exact identity in finitely many variables (JQ_2 in two
# variables has an odd coefficient where every GQ leading coefficient is
# even, so `expand` exits 1); JQ -> schur keeps a J-family expansion instead.
EXPAND_PAIRS = (("GQ", "GP"), ("gq", "gp"), ("jq", "jp"), ("GP", "schur"), ("JQ", "schur"))
CLI_CACHE_REQUESTS = 20


def _request(kind: tuple[str, ...], shape: str, nvars: int, extra: int) -> Job:
    max_deg = sum(int(p) for p in shape.split(",")) + extra
    if len(kind) == 1:
        head: tuple[str, ...] = ("compute", "--func", kind[0])
    else:
        head = ("expand", "--target", kind[0], "--basis", kind[1])
    return Job(head + ("--outer", shape, "--vars", str(nvars), "--max-deg", str(max_deg), "--format", "json"))


def _kinds() -> list[tuple[str, ...]]:
    return [(f,) for f in COMPUTE_FUNCS] + list(EXPAND_PAIRS)


def request_pool() -> list[Job]:
    """Every request the cli-cache generator can draw."""
    return [
        _request(kind, shape, nvars, extra)
        for kind in _kinds()
        for shape in SHAPES
        for nvars in VARS
        for extra in EXTRA_DEG
    ]


def cli_cache_requests(seed: int, count: int = CLI_CACHE_REQUESTS) -> tuple[Job, ...]:
    """The cli-cache request list for a seed: one expansion for every two computes."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        kind = rng.choice(EXPAND_PAIRS) if rng.random() < 1 / 3 else (rng.choice(COMPUTE_FUNCS),)
        jobs.append(_request(kind, rng.choice(SHAPES), rng.choice(VARS), rng.choice(EXTRA_DEG)))
    return tuple(jobs)


NAMES = ("cauchy", "enumeration", "cli-cache")


def workload(name: str, seed: int) -> Workload:
    if name == "cli-cache":
        return Workload(cli_cache_requests(seed), disk_cache=True)
    return Workload(FIXED[name], disk_cache=False)


def all_jobs() -> list[Job]:
    """Every job whose digest digests.json records."""
    return [job for jobs in FIXED.values() for job in jobs] + request_pool()


def load_digests() -> dict[str, str]:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)
