"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--scale", "tiny",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def env_of(proc: subprocess.CompletedProcess) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("env "))
    return json.loads(line[len("env "):])


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    for name in [*e2e, *per_layer, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_each_workload_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_and_untraced_outputs_are_equal(workload, tmp_path):
    class Args:
        seed, scale, seconds = 5, "tiny", 0.0

    Args.workload = workload
    env = run.child_env(Args.seed, tmp_path)
    plain = run.run_child(Args, tmp_path, env, trace=0, cycles=1)
    traced = run.run_child(Args, tmp_path, env, trace=1, cycles=1)
    assert [c["outputs"] for c in traced["cycles"]] == [
        c["outputs"] for c in plain["cycles"]
    ]
    assert set(traced["per_layer"]) | {"trace.overhead_s"} == set(tracing.PER_LAYER)
    assert traced["per_layer"]["share.unattributed"] < 0.2


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "campaign", "--seed", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"]
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fabric.quarantined"] == metrics["fabric.retried"] == 0
    assert metrics["fabric.shards_executed"] > 0
    assert metrics["sim.trials"] > 0


def test_two_seeds_record_two_hash_seeds():
    stamps = [
        env_of(bench("--workload", "table1-gen", "--seed", seed, "--trace", "0"))
        for seed in ("1", "2")
    ]
    assert stamps[0]["hash_seed"] != stamps[1]["hash_seed"]
    assert [s["hash_seed"] for s in stamps] == [run.hash_seed(1), run.hash_seed(2)]
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "src_digest"):
        assert key in stamps[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "campaign", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
