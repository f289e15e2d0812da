"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with the environment it pins (hash seed, thread
caps, temporary directory).  Writes one JSON record to ``--out``: set-up
time, per-cycle stage times, checked operations, outputs and, with
``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    # System-wide monotonic clock: comparable with the parent's spawn stamp.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cycles", type=int, default=0,
                        help="run exactly this many cycles (0: as many as fit "
                        "in --seconds, at least one)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="fresh directory for the cycles' stores and journals")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale])
    state = workload.setup(args.seed)

    cycles = []
    pass_start = _now()
    setup_s = pass_start - args.spawned_at
    if tracer is not None:
        tracer.in_pass = True
    while True:
        workdir = args.workdir / f"cycle{len(cycles)}"
        workdir.mkdir(parents=True)
        c0 = _now()
        cycle = workload.cycle(state, workdir)
        cycle["pass_s"] = _now() - c0
        cycles.append(cycle)
        if args.cycles:
            if len(cycles) >= args.cycles:
                break
        # Start no cycle that would likely end past --seconds.
        elif _now() - pass_start + cycle["pass_s"] > args.seconds:
            break
    pass_total = _now() - pass_start
    if tracer is not None:
        tracer.in_pass = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.finish(state, cycles)

    record = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cycles": cycles,
        "problems": problems,
    }
    if tracer is not None:
        tracer.uninstall()
        record["per_layer"] = tracer.metrics(pass_total)
    args.out.write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
