"""Pipeline benchmark of the FPVA test-generation and diagnosis system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-gen --seed 1 --seconds 20 --trace 0

Each run starts one fresh child process (``child.py``) with one worker
and no process pool.  The child's ``PYTHONHASHSEED`` is derived from
``--seed``, BLAS/OpenMP threads are capped at ``nproc`` and every run
gets its own temporary store and journal directory under
``.perfbench/`` in the repository root, removed at exit.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload twice at the same seed, untraced and then with per-layer spans,
checks that both produced identical outputs, and prints every per-layer
metric, the layer shares and ``trace.overhead_s``.  The last line of
standard output is the JSON result; the lines before it stamp the
environment and detail the stages.  A failed check makes the run exit 1.
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
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("table1-gen", "campaign", "diagnose-card2")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "suite_vectors": "count",
}

#: Wall-clock limit for all children of one run, which must end within
#: 180 s.
RUN_TIMEOUT_S = 170


def hash_seed(seed: int) -> int:
    """The child's ``PYTHONHASHSEED`` for a benchmark seed (0..2**32-1)."""
    digest = hashlib.blake2b(f"perfbench-hash:{seed}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def child_env(seed: int, tmpdir: Path) -> dict:
    """The pinned environment of one child process."""
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.update({
        "PYTHONHASHSEED": str(hash_seed(seed)),
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "NUMEXPR_NUM_THREADS": threads,
        "TMPDIR": str(tmpdir),
    })
    return env


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def src_digest() -> str:
    """Digest of every source file, which identifies the code without git."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    """The environment a result was measured in."""
    return {
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "hash_seed": hash_seed(seed),
    }


def run_child(
    args, workdir: Path, env: dict, trace: int, cycles: int = 0,
    timeout: float = RUN_TIMEOUT_S,
) -> dict:
    """Start one child, wait for it, and return its record."""
    out = workdir / f"record-trace{trace}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--seconds", str(args.seconds),
        "--cycles", str(cycles), "--trace", str(trace),
        "--workdir", str(workdir / f"work-trace{trace}"), "--out", str(out),
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(out.read_text())


def median_of(cycles: list[dict], key: str) -> float:
    return statistics.median(float(c[key]) for c in cycles)


def end_to_end(record: dict) -> dict:
    cycles = record["cycles"]
    values = {
        "setup_s": record["setup_s"],
        "pass_s": median_of(cycles, "pass_s"),
        "peak_rss_mb": record["peak_rss_mb"],
        "suite_vectors": cycles[0]["suite_vectors"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def stage_details(record: dict) -> dict:
    """Workload-specific figures, printed for people, not compared."""
    cycles = record["cycles"]
    details = {"cycles": len(cycles), "build_s": median_of(cycles, "build_s")}
    if "chips" in cycles[0]:
        details["chips_per_s"] = cycles[0]["chips"] / median_of(cycles, "build_s")
    for key in ("coverage_s", "dict_load_s", "diagnose_s", "diagnose_s_p50",
                "vectors_applied_mean"):
        if key in cycles[0]:
            details[key] = median_of(cycles, key)
    return details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes (tiny: the benchmark's own tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    try:
        env = child_env(args.seed, workdir / "tmp")
        env_stamp = stamp(args.seed)
        print("env " + json.dumps(env_stamp, sort_keys=True), flush=True)
        try:
            plain = run_child(args, workdir, env, trace=0,
                              timeout=deadline - time.monotonic())
            traced = (
                run_child(args, workdir, env, trace=1, cycles=len(plain["cycles"]),
                          timeout=max(1.0, deadline - time.monotonic()))
                if args.trace else None
            )
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    problems = list(plain["problems"])
    for record in (plain, traced):
        if record is not None and record["hash_seed"] != str(env_stamp["hash_seed"]):
            problems.append(f"child ran with PYTHONHASHSEED={record['hash_seed']}")
    cycles = plain["cycles"]
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    if any(c["outputs"] != cycles[0]["outputs"] for c in cycles):
        problems.append("cycles at one seed produced different outputs")
    if traced is not None:
        problems += traced["problems"]
        if [c["outputs"] for c in traced["cycles"]] != [c["outputs"] for c in cycles]:
            problems.append("traced outputs differ from untraced outputs")
        attempted += sum(c["attempted"] for c in traced["cycles"])
        failed += sum(c["failed"] for c in traced["cycles"])
    if problems and not failed:
        failed = attempted
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print("stages " + json.dumps(stage_details(plain), sort_keys=True))
    print("outputs " + json.dumps(cycles[0]["outputs"], sort_keys=True))
    if traced is None:
        metrics = end_to_end(plain)
    else:
        import tracing

        per_layer = dict(traced["per_layer"])
        per_layer["trace.overhead_s"] = (
            median_of(traced["cycles"], "pass_s") - median_of(cycles, "pass_s")
        )
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()
        }
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
