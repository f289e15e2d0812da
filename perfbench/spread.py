"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each workload, one run at a time, and
reports each metric's median, quartiles and spread (the distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them).  From the repository
root::

    python3 perfbench/spread.py --seeds 1-10 --out spread.json
    python3 perfbench/spread.py --workloads campaign --seeds 1-5

``--out`` keeps every run's record as it lands, so an interrupted
measurement still leaves the finished runs, and ends with a ``summary``
of each workload's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--seconds",
        default=str(json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]),
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=run.ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            runs.append({
                "workload": workload, "seed": seed, "exit": proc.returncode,
                "result": result, "stdout": lines[:-1],
            })
            args.out.write_text(json.dumps({"runs": runs}, indent=1))
            metrics = result["metrics"] if result else {}
            print(workload, seed, proc.returncode,
                  {k: round(v["value"], 3) for k, v in metrics.items()},
                  flush=True)

    summary = {}
    print(f"{'workload':15} {'metric':14} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7}")
    for workload in args.workloads.split(","):
        done = [r["result"] for r in runs
                if r["workload"] == workload and r["result"]]
        if len(done) < 2:
            continue
        summary[workload] = {}
        for name in run.END_TO_END:
            s = summarize([r["metrics"][name]["value"] for r in done])
            summary[workload][name] = s
            print(f"{workload:15} {name:14} {s['median']:10.3f} {s['q1']:10.3f} "
                  f"{s['q3']:10.3f} {s['spread']:7.3f}")
    args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
