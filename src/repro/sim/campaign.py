"""Randomized multi-fault injection campaigns (the section IV experiment).

The paper's evaluation randomly introduces one to five faults per chip,
10 000 times per array, and applies the generated test set; every injected
fault combination was detected.  This module reproduces that experiment
with a configurable trial count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.chip import ChipUnderTest
from repro.sim.faults import Fault, fault_universe, faults_compatible
from repro.sim.kernel import (
    BatchEvaluator,
    CompiledFaultSet,
    SinkCoverageError,
)
from repro.sim.seeding import mix_seed


@dataclass
class CampaignResult:
    """Detection statistics for one (array, fault-count) configuration."""

    num_faults: int
    trials: int
    detected: int
    undetected_examples: list[tuple[Fault, ...]] = field(default_factory=list)
    #: Trial index (within this result's own trial stream) of each kept
    #: undetected example, parallel to :attr:`undetected_examples`.  Merged
    #: results carry campaign-global indices, which is what lets the merge
    #: select examples deterministically whatever order shards arrive in.
    undetected_trials: list[int] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 1.0

    @property
    def all_detected(self) -> bool:
        return self.detected == self.trials

    def as_dict(self) -> dict:
        """A JSON-serializable view (faults rendered via ``repr``)."""
        return {
            "num_faults": self.num_faults,
            "trials": self.trials,
            "detected": self.detected,
            "detection_rate": self.detection_rate,
            "undetected_trials": list(self.undetected_trials),
            "undetected_examples": [
                [repr(fault) for fault in example]
                for example in self.undetected_examples
            ],
        }

    def __repr__(self):
        return (
            f"CampaignResult(k={self.num_faults}, {self.detected}/{self.trials} "
            f"detected = {self.detection_rate:.4%})"
        )


def merge_shards(
    num_faults: int,
    shards: Sequence[tuple[int, "CampaignResult"]],
    keep_undetected: int,
) -> "CampaignResult":
    """Merge ``(shard index, result)`` pairs into one :class:`CampaignResult`.

    The aggregate is a pure function of the shard *contents*: counts are
    commutative sums, and undetected examples are re-indexed to
    campaign-global trial numbers (``shard offset + local trial``), sorted
    by that global index, then truncated to ``keep_undetected`` — so the
    merge is bit-identical whether shards arrive in shard order (the
    in-memory pool), completion order, or any resume order (the fabric).
    """
    ordered = sorted(shards, key=lambda pair: pair[0])
    indices = [index for index, _ in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {indices}")
    merged = CampaignResult(num_faults=num_faults, trials=0, detected=0)
    entries: list[tuple[int, tuple]] = []
    offset = 0
    for _, shard in ordered:
        merged.trials += shard.trials
        merged.detected += shard.detected
        trials = shard.undetected_trials
        if len(trials) != len(shard.undetected_examples):
            # Legacy shard results without per-example indices: fall back
            # to per-shard arrival order (still deterministic, examples
            # are appended in trial order).
            trials = range(len(shard.undetected_examples))
        for local, example in zip(trials, shard.undetected_examples):
            entries.append((offset + local, example))
        offset += shard.trials
    entries.sort(key=lambda entry: entry[0])
    for global_trial, example in entries[:keep_undetected]:
        merged.undetected_examples.append(example)
        merged.undetected_trials.append(global_trial)
    return merged


def sample_fault_set(
    universe: Sequence[Fault], k: int, rng: random.Random, max_attempts: int = 1000
) -> tuple[Fault, ...]:
    """Draw ``k`` distinct, physically compatible faults."""
    for _ in range(max_attempts):
        picked = tuple(rng.sample(universe, k))
        if faults_compatible(picked):
            return picked
    raise RuntimeError(f"could not sample {k} compatible faults")


def campaign_universe(
    fpva: FPVA, scenario=None, include_control_leaks: bool = True
) -> tuple[Fault, ...]:
    """The candidate faults a campaign draws from, in canonical order.

    ``scenario=None`` is the paper's stuck-at/control-leak space.  Sessions
    memoize this through :meth:`~repro.context.ExecutionContext.universe`.
    """
    if scenario is None:
        return tuple(
            fault_universe(fpva, include_control_leaks=include_control_leaks)
        )
    return tuple(scenario.universe(fpva))


def _resolve_context(fpva, context):
    """``context`` validated against ``fpva``, or a fresh private session."""
    from repro.context import ExecutionContext  # late: context sits above sim

    return ExecutionContext.resolve(context, fpva)


def run_campaign(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    num_faults: int,
    trials: int,
    seed: int = 0,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    context=None,
) -> CampaignResult:
    """Inject ``num_faults`` random faults ``trials`` times; count detections.

    ``scenario`` is any object implementing the
    :class:`repro.engine.scenarios.FaultScenario` protocol (``universe(fpva)``
    and ``sample(universe, rng, num_faults)``); when omitted the paper's
    stuck-at/control-leak fault space is sampled directly.

    ``context`` supplies the compiled-kernel session every campaign in a
    sweep shares (kernel, tester, fault universe, batch-evaluation
    scenario pool).  A
    kernel-engine session canonicalizes every trial chip to its per-vector
    effective-state masks, deduplicates, and evaluates the whole campaign
    through the compiled bitmask kernel — 64 scenarios per machine word;
    an ``engine="object"`` session keeps the original chip-at-a-time loop.
    Both draw fault sets in the same RNG order and report bit-identical
    :class:`CampaignResult`\\ s.
    """
    context = _resolve_context(fpva, context)
    rng = random.Random(seed)
    universe = context.universe(scenario, include_control_leaks)
    if scenario is None:
        draw = lambda: sample_fault_set(universe, num_faults, rng)  # noqa: E731
    else:
        draw = lambda: scenario.sample(universe, rng, num_faults)  # noqa: E731
    result = CampaignResult(num_faults=num_faults, trials=trials, detected=0)
    tester = context.tester
    if context.batched:
        evaluator = None
        try:
            evaluator = context.evaluator(vectors)
        except SinkCoverageError:
            pass  # partial expectations: fall through to the legacy loop
        if evaluator is not None:
            _run_batched(
                evaluator, draw, trials, keep_undetected, result
            )
            return result
    for trial in range(trials):
        faults = draw()
        chip = ChipUnderTest(fpva, faults)
        run = tester.run(chip, vectors, stop_at_first_fail=True)
        if run.fault_detected:
            result.detected += 1
        elif len(result.undetected_examples) < keep_undetected:
            result.undetected_examples.append(faults)
            result.undetected_trials.append(trial)
    return result


def _run_batched(
    evaluator: BatchEvaluator,
    draw,
    trials: int,
    keep_undetected: int,
    result: CampaignResult,
) -> None:
    """Kernel-backed campaign body: draw everything, simulate once.

    A chip is detected iff *any* vector reads off-expectation, which does
    not depend on the early-exit order of the legacy loop, so detection
    counts and undetected examples match it exactly.
    """
    kernel = evaluator.kernel
    fires_cache: dict = {}
    drawn = [draw() for _ in range(trials)]
    rows = []
    for faults in drawn:
        # Same physical-consistency gate ChipUnderTest applies on the
        # legacy path (scenarios are expected to sample compatible sets).
        if not faults_compatible(faults):
            raise ValueError(f"incompatible fault set: {tuple(faults)}")
        rows.append(
            evaluator.slot_row(CompiledFaultSet(kernel, faults, fires_cache))
        )
    evaluator.flush()
    expected = evaluator.expected_rows
    observed = evaluator.observed_row
    for trial, (faults, row) in enumerate(zip(drawn, rows)):
        if any(observed(slot) != expected[vi] for vi, slot in enumerate(row)):
            result.detected += 1
        elif len(result.undetected_examples) < keep_undetected:
            result.undetected_examples.append(faults)
            result.undetected_trials.append(trial)


def run_sweep(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    fault_counts: Sequence[int] = (1, 2, 3, 4, 5),
    trials: int = 200,
    seed: int = 0,
    include_control_leaks: bool = True,
    scenario=None,
    context=None,
) -> dict[int, CampaignResult]:
    """The paper's sweep: k = 1..5 faults, ``trials`` chips per k.

    One session serves every fault count, so the kernel compiles once and
    the per-campaign batch evaluations share a scenario-dedup pool.  Each
    fault count draws from its own RNG stream seeded by
    ``mix_seed(seed, k)`` — never by naive ``seed + k`` arithmetic, whose
    streams collide across sweeps (``(seed=0, k=2)`` and ``(seed=1, k=1)``
    would inject identical chips).
    """
    context = _resolve_context(fpva, context)
    return {
        k: run_campaign(
            fpva,
            vectors,
            num_faults=k,
            trials=trials,
            seed=mix_seed(seed, k),
            include_control_leaks=include_control_leaks,
            scenario=scenario,
            context=context,
        )
        for k in fault_counts
    }
