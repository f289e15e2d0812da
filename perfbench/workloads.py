"""The benchmark's workloads, run inside one child process each.

A workload has a ``setup(seed)`` that builds what every cycle shares and
a ``cycle(state, workdir)`` that is the timed unit of work.  A cycle
returns the time of its build stage (``build_s``) and of its other
stages, the operations it checked (``attempted``/``failed``), the suite
size and an ``outputs`` record that must be identical between two runs
at one seed.  ``finish`` runs checks that belong outside the timed pass.

``table1-gen``
    Cold generation of Table I rows, built the way ``repro table1``
    builds them, each followed by ``measure_coverage``.  One operation
    per row.  ``build_s`` is layout + generation.
``campaign``
    Set-up generates the 20x20 Table I suite.  A cycle runs the paper's
    stuck-at sweep (k = 1..5) through the campaign journal into a fresh
    directory with one worker (``build_s``).  One operation per shard.
``diagnose-card2``
    Set-up generates the 10x10 Table I suite.  A cycle builds the
    cardinality-2 stuck-at dictionary cold into a fresh store
    (``build_s``), reloads it warm in a fresh session, then runs
    adaptive diagnosis on injected double-fault chips.  One operation
    per chip.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from pathlib import Path

import repro.engine as engine
import repro.fabric as fabric
import repro.fpva as fpva_pkg
from repro.context import ExecutionContext
from repro.core import TestGenerator
from repro.core import coverage as coverage_mod
from repro.engine import AdaptiveDiagnoser, get_scenario
from repro.sim import ChipUnderTest
from repro.store import ArtifactStore

#: Inputs per scale.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the benchmark's own tests fast.
SCALES = {
    "full": {
        "table1_rows": (5, 15, 20),
        "campaign_size": 20,
        "campaign_trials": 400,
        "diagnose_size": 10,
        "diagnose_chips": 4,
    },
    "tiny": {
        "table1_rows": (4,),
        "campaign_size": 4,
        "campaign_trials": 100,
        "diagnose_size": 4,
        "diagnose_chips": 2,
    },
}

FAULT_COUNTS = (1, 2, 3, 4, 5)


def _layout(n: int):
    """A Table I layout where one exists, else a plain full array.

    Looked up through the package at each call, so the tracer's span on
    ``repro.fpva.table1_layout`` sees it.
    """
    if n in fpva_pkg.TABLE1_SIZES:
        return fpva_pkg.table1_layout(n)
    return fpva_pkg.full_layout(n, n)


def _generate(fpva, context):
    """The suite as ``repro table1`` builds it."""
    strategy = "direct" if fpva.nr <= 5 else "hierarchical"
    return TestGenerator(fpva, path_strategy=strategy, context=context).generate()


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class Table1Gen:
    name = "table1-gen"

    def __init__(self, scale: dict):
        self.rows = scale["table1_rows"]

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def cycle(self, state: dict, workdir: Path) -> dict:
        build_s = coverage_s = 0.0
        outputs, failed, vectors = [], 0, 0
        for n in self.rows:
            t0 = time.perf_counter()
            fpva = _layout(n)
            ctx = ExecutionContext(fpva, seed=state["seed"])
            generated = _generate(fpva, ctx)
            t1 = time.perf_counter()
            suite = generated.testset
            report = coverage_mod.measure_coverage(
                fpva, suite.all_vectors(), context=ctx
            )
            t2 = time.perf_counter()
            build_s += t1 - t0
            coverage_s += t2 - t1
            vectors += suite.total
            failed += not report.complete
            outputs.append({
                "row": n,
                "suite_digest": _digest(suite.to_json()),
                "vectors": suite.total,
                "coverage": report.summary(),
            })
        return {
            "build_s": build_s,
            "coverage_s": coverage_s,
            "attempted": len(self.rows),
            "failed": failed,
            "suite_vectors": vectors,
            "outputs": outputs,
        }

    def finish(self, state: dict, cycles: list[dict]) -> list[str]:
        return []


def _sweep_payload(sweep: dict) -> str:
    """The sweep as ``repro campaign --json`` writes it."""
    return json.dumps(
        {str(k): sweep[k].as_dict() for k in sorted(sweep)},
        indent=2, sort_keys=True,
    )


class _CapturedDrain:
    """Keeps the :class:`DrainStats` that ``engine.run_sweep`` drops.

    ``engine.run_sweep(journal_dir=...)`` imports ``run_journaled_sweep``
    from the ``repro.fabric`` package at each call, so replacing that
    attribute for the duration of the sweep sees every drain.
    """

    def __enter__(self):
        self.stats = []
        self._original = fabric.run_journaled_sweep

        def capture(*args, **kwargs):
            results, stats = self._original(*args, **kwargs)
            self.stats.append(stats)
            return results, stats

        fabric.run_journaled_sweep = capture
        return self

    def __exit__(self, *exc):
        fabric.run_journaled_sweep = self._original


class Campaign:
    name = "campaign"

    def __init__(self, scale: dict):
        self.size = scale["campaign_size"]
        self.trials = scale["campaign_trials"]

    def setup(self, seed: int) -> dict:
        fpva = _layout(self.size)
        ctx = ExecutionContext(fpva, seed=seed)
        suite = _generate(fpva, ctx).testset
        return {
            "seed": seed, "fpva": fpva, "ctx": ctx,
            "vectors": suite.all_vectors(), "suite_vectors": suite.total,
        }

    def _sweep(self, state: dict, journal_dir=None) -> dict:
        return engine.run_sweep(
            state["fpva"], state["vectors"],
            fault_counts=FAULT_COUNTS, trials=self.trials, seed=state["seed"],
            workers=1, context=state["ctx"], journal_dir=journal_dir,
        )

    def cycle(self, state: dict, workdir: Path) -> dict:
        journal = workdir / "journal"
        t0 = time.perf_counter()
        with _CapturedDrain() as drain:
            sweep = self._sweep(state, journal)
        t1 = time.perf_counter()
        (stats,) = drain.stats
        payload = _sweep_payload(sweep)
        return {
            "build_s": t1 - t0,
            "attempted": stats.total,
            "failed": len(stats.quarantined) + (stats.total - stats.executed),
            "suite_vectors": state["suite_vectors"],
            "chips": self.trials * len(FAULT_COUNTS),
            "degraded": stats.degraded,
            "outputs": {
                "sweep_digest": _digest(payload),
                "detected": {str(k): sweep[k].detected for k in sorted(sweep)},
            },
            "payload": payload,
        }

    def finish(self, state: dict, cycles: list[dict]) -> list[str]:
        """The journaled merge must equal the in-memory sweep."""
        reference = _sweep_payload(self._sweep(state))
        problems = []
        for i, cycle in enumerate(cycles):
            if cycle.pop("payload") != reference:
                problems.append(f"cycle {i}: journaled sweep != in-memory sweep")
                cycle["failed"] = cycle["attempted"]
            if cycle["degraded"]:
                problems.append(f"cycle {i}: degraded drain")
        return problems


class DiagnoseCard2:
    name = "diagnose-card2"

    def __init__(self, scale: dict):
        self.size = scale["diagnose_size"]
        self.chips = scale["diagnose_chips"]

    def setup(self, seed: int) -> dict:
        fpva = _layout(self.size)
        ctx = ExecutionContext(fpva, seed=seed)
        suite = _generate(fpva, ctx).testset
        scenario = get_scenario("stuck-at")
        return {
            "seed": seed, "fpva": fpva, "ctx": ctx,
            "vectors": suite.all_vectors(), "suite_vectors": suite.total,
            "scenario": scenario, "universe": scenario.universe(fpva),
        }

    def cycle(self, state: dict, workdir: Path) -> dict:
        fpva, seed = state["fpva"], state["seed"]
        vectors, universe = state["vectors"], state["universe"]
        root = workdir / "store"
        t0 = time.perf_counter()
        # The session kernel is published with the dictionary, so the
        # warm session below loads it instead of compiling.
        store = ArtifactStore(root)
        store.kernels.save(state["ctx"].kernel)
        cold_ctx = ExecutionContext(
            fpva, store=store, kernel=state["ctx"].kernel, seed=seed
        )
        cold = cold_ctx.dictionary(vectors, universe=universe, max_cardinality=2)
        t1 = time.perf_counter()
        warm_ctx = ExecutionContext(fpva, cache_dir=root, seed=seed)
        warm = warm_ctx.dictionary(vectors, universe=universe, max_cardinality=2)
        t2 = time.perf_counter()
        diagnoser = AdaptiveDiagnoser(warm, context=warm_ctx)
        rng = random.Random(seed)
        chips, latencies, failed = [], [], 0
        for _ in range(self.chips):
            faults = state["scenario"].sample(universe, rng, 2)
            chip = ChipUnderTest(fpva, faults)
            c0 = time.perf_counter()
            session = diagnoser.diagnose(chip)
            latencies.append(time.perf_counter() - c0)
            candidates = session.report.candidates
            hit = any(set(c) == set(faults) for c in candidates)
            failed += not hit
            chips.append({
                "faults": repr(tuple(faults)),
                "candidates": _digest(repr(candidates)),
                "applied": session.num_applied,
                "hit": hit,
            })
        t3 = time.perf_counter()
        reloaded = (
            warm.build_stats.get("mode") == "warm"
            and cold.build_stats.get("mode") == "cold"
            and warm.digest == cold.digest
            and warm.distinct_syndromes == cold.distinct_syndromes
        )
        if not reloaded:
            failed = self.chips
        applied = [c["applied"] for c in chips]
        return {
            "build_s": t1 - t0,
            "dict_load_s": t2 - t1,
            "diagnose_s": t3 - t2,
            "diagnose_s_p50": statistics.median(latencies),
            "vectors_applied_mean": statistics.mean(applied),
            "attempted": self.chips,
            "failed": failed,
            "suite_vectors": state["suite_vectors"],
            "outputs": {
                "dictionary_digest": cold.digest,
                "syndromes": cold.distinct_syndromes,
                "fault_sets": cold.total_fault_sets,
                "chips": chips,
            },
        }

    def finish(self, state: dict, cycles: list[dict]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Table1Gen, Campaign, DiagnoseCard2)}
