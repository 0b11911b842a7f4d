"""Record the expected stdout digest of every benchmark job in digests.json.

usage: python3 bench/record.py

Runs every fixed job and every request the cli-cache generator can draw once,
each in a fresh process as the benchmark runs it, and fails if any of them
exits nonzero or a verify job does not PASS.  Outputs must stay byte-identical
across changes to kshift, so this is rerun only when the job list changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    tmp = run.ROOT / ".bench_tmp" / f"record{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        run.warm_up()
        runner = run.Runner(tmp, digests=None)
        digests = {}
        for job in workloads.all_jobs():
            ex = runner.spawn(job, trace=False)
            if ex.problems:
                print(f"record: {job.key}: {'; '.join(ex.problems)}", file=sys.stderr)
                return 1
            digests[job.key] = hashlib.sha256(ex.stdout).hexdigest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
