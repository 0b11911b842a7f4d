"""Run one kshift CLI job in this process and record its timings.

usage: python3 bench/job.py RECORD TRACE -- KSHIFT-ARGS...

The job is `kshift.cli.main(KSHIFT-ARGS)`, as the `kshift` command runs it.
RECORD receives a JSON object when the job ends: `ready`, the monotonic clock
reading once `kshift.cli` is imported and `main` is about to be called (the
harness subtracts its spawn time to get set-up time), and the exit code.  With
TRACE=1 the tracer in tracer.py is installed before `main` and its spans and
counters are written beside RECORD.
"""

import sys
import time


def main() -> int:
    record, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py RECORD TRACE -- KSHIFT-ARGS...")
    import kshift.cli

    ready = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.open(tracer.name_id("cli.main"))
    try:
        rc = kshift.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    if tracer is not None:
        tracer.close(root)
        tracer.dump(record + ".trace")
    import json

    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
