"""Sharded, process-parallel fault-injection campaigns.

The section IV experiment is embarrassingly parallel: trials are
independent chips.  The runner splits a campaign into fixed-size logical
shards, seeds each shard's RNG by mixing (seed, fault count, shard index)
through the shared splitmix64 finalizer (:mod:`repro.sim.seeding`) — never
by worker identity — and merges shard results in shard order.  Because the
shard structure is a function of the *trial count* alone, the aggregated
:class:`CampaignResult` is bit-identical whatever ``workers`` is; a pool
only changes wall-clock.

The array is compiled into a
:class:`~repro.sim.kernel.ReachabilityKernel` **once** per campaign.  By
default the kernel rides to every shard pickled inside the payload; with
a session store configured it is persisted through the
:class:`~repro.store.KernelStore` instead and the payload carries only the
artifact *path* — each worker process loads the flat arrays once and
memoizes them across its shards, so wide sweeps stop serializing a kernel
per task.  Scenario objects and arrays ride to the workers via pickling,
so custom scenarios must be defined at module top level (the registered
ones are).

With ``journal_dir=`` set, the *identical* shard structure runs through
the campaign fabric (:mod:`repro.fabric`) instead of a transient pool:
every shard is a content-addressed descriptor, completed shards publish
atomically into the journal, and a killed run resumes from the last
published shard — with any worker count, since the merge reads published
shards in canonical order.  The no-journal path remains the in-memory
fast case.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.campaign import (
    CampaignResult,
    merge_shards,
    run_campaign as _run_serial,
)
from repro.sim.kernel import ReachabilityKernel
from repro.sim.seeding import mix_seed as _mix_seed

#: Trials per logical shard.  Small enough that modest campaigns still fan
#: out, large enough that per-task pickling stays negligible.
SHARD_TRIALS = 50

#: Per-process kernel memo for path-shipped payloads: worker processes
#: survive across shards, so each loads a given artifact exactly once.
# repro: ignore[R7] -- deliberate per-process cache: populated only inside a worker, keyed by artifact path, never shared across processes
_KERNEL_MEMO: dict[str, ReachabilityKernel] = {}

#: Per-process session memo for path-shipped payloads: shards carrying the
#: same artifact path share one ExecutionContext, so evaluator scenario
#: pools (and any dictionary warm state) persist across a worker's shards.
# repro: ignore[R7] -- deliberate per-process cache: populated only inside a worker, keyed by artifact path, never shared across processes
_CONTEXT_MEMO: dict = {}


def _resolve_shipping(fpva, context):
    """``(backend, kernel_spec)`` a session's shard payloads carry.

    The kernel spec is what rides in shard payloads: ``None`` for the
    object engine (``backend="legacy"``), the compiled kernel object
    without a store, or the persisted artifact's path (a string) with
    one — see :meth:`~repro.context.ExecutionContext.shipping_spec`.
    """
    from repro.context import ExecutionContext

    return ExecutionContext.resolve(context, fpva).shipping_spec()


def _resolve_kernel(fpva, kernel):
    """Materialize a payload's kernel spec inside the worker.

    Path-shipped kernels are loaded once per process and reused; the
    memoized kernel's own (unpickled) array object is returned alongside so
    the simulator's compiled-for-this-array identity check holds across
    shards that arrived in different payloads.
    """
    if not isinstance(kernel, str):
        return fpva, kernel
    cached = _KERNEL_MEMO.get(kernel)
    if cached is None:
        from pathlib import Path

        from repro.store import ArtifactCorruptionError, KernelStore

        try:
            cached = KernelStore.load_file(fpva, kernel)
        except ArtifactCorruptionError as error:
            # A corrupt shipped artifact must not poison every shard this
            # worker runs: quarantine it and recompile from the array —
            # get_or_compile republishes, so later workers warm-load the
            # healed artifact instead of re-paying the compile.
            store = KernelStore(Path(kernel).parent)
            store.heal(fpva, error)
            cached = store.get_or_compile(fpva)
        _KERNEL_MEMO[kernel] = cached
    return cached.fpva, cached


def _shard_session(fpva, backend, kernel):
    """A fresh session for one run of shards (a drain or a serial loop).

    Every shard the run executes shares the session's kernel, fault
    universe and memoized evaluator, so a sweep pays those fixed costs
    once.  The caller owns the session's lifetime: it lives exactly as
    long as that one sweep, which keeps memory bounded by one sweep's
    scenario pool.
    """
    from repro.context import ExecutionContext

    if backend == "legacy":
        return ExecutionContext(fpva, engine="object")
    fpva, resolved = _resolve_kernel(fpva, kernel)
    return ExecutionContext(fpva, kernel=resolved)


def _shard_context(fpva, backend, kernel):
    """The session a pool-mapped shard runs under.

    Pool workers see one payload at a time, so shards whose payloads name
    the same persisted kernel artifact share one session per worker
    process (the memo dies with the pool).  Safe for bit-identity: shard
    results are a pure function of the payload's explicit seed
    (``run_campaign`` never consults the context's own seed).
    Object-shipped kernels arrive as a fresh pickled copy per payload, so
    each such shard gets its own session; in-process loops avoid that by
    passing one :func:`_shard_session` to every :func:`_run_shard`.
    """
    if backend == "legacy" or not isinstance(kernel, str):
        return _shard_session(fpva, backend, kernel)
    context = _CONTEXT_MEMO.get(kernel)
    if context is None:
        context = _CONTEXT_MEMO[kernel] = _shard_session(fpva, backend, kernel)
    return context


def _run_shard(payload, context=None) -> CampaignResult:
    """Simulate one shard payload, on ``context`` when one is given."""
    (fpva, vectors, num_faults, trials, shard_seed, include_control_leaks,
     keep_undetected, scenario, backend, kernel) = payload
    if context is None:
        context = _shard_context(fpva, backend, kernel)
    return _run_serial(
        context.fpva,
        vectors,
        num_faults=num_faults,
        trials=trials,
        seed=shard_seed,
        include_control_leaks=include_control_leaks,
        keep_undetected=keep_undetected,
        scenario=scenario,
        context=context,
    )


def _shard_payloads(
    fpva,
    vectors,
    num_faults,
    trials,
    seed,
    include_control_leaks,
    keep_undetected,
    scenario,
    shard_trials,
    backend,
    kernel,
):
    payloads = []
    shard = 0
    remaining = trials
    while remaining > 0:
        size = min(shard_trials, remaining)
        payloads.append(
            (
                fpva,
                vectors,
                num_faults,
                size,
                _mix_seed(seed, num_faults, shard),
                include_control_leaks,
                keep_undetected,
                scenario,
                backend,
                kernel,
            )
        )
        remaining -= size
        shard += 1
    return payloads


def _merge(
    num_faults: int, shards: Sequence[CampaignResult], keep_undetected: int
) -> CampaignResult:
    """Merge shard results given *in shard order*.

    Delegates to :func:`repro.sim.campaign.merge_shards`, which sorts
    example candidates by campaign-global ``(shard, trial)`` before
    truncating to ``keep_undetected`` — the selection is therefore a pure
    function of shard contents, never of arrival or resume order (the
    pre-fabric version took examples first-come, which only happened to
    be deterministic because this runner always merged in shard order).
    """
    return merge_shards(num_faults, list(enumerate(shards)), keep_undetected)


def _run_journaled(
    fpva,
    vectors,
    fault_counts,
    trials,
    seed,
    include_control_leaks,
    keep_undetected,
    scenario,
    shard_trials,
    mode,
    kernel,
    workers,
    journal_dir,
    resume,
    max_attempts=None,
):
    """The fabric path shared by the journaled campaign and sweep."""
    from repro.fabric import CampaignSpec, run_journaled_sweep

    spec = CampaignSpec(
        fpva=fpva,
        vectors=tuple(vectors),
        fault_counts=tuple(fault_counts),
        trials=trials,
        seed=seed,
        include_control_leaks=include_control_leaks,
        keep_undetected=keep_undetected,
        scenario=scenario,
        shard_trials=shard_trials,
    )
    extra = {} if max_attempts is None else {"max_attempts": max_attempts}
    results, _ = run_journaled_sweep(
        spec,
        journal_dir,
        workers=workers,
        resume=resume,
        mode=mode,
        kernel=kernel,
        **extra,
    )
    return results


def run_campaign(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    num_faults: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    shard_trials: int = SHARD_TRIALS,
    context=None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Sharded campaign; result is independent of ``workers`` *and* of
    whether the kernel ships by artifact path or by pickle.  ``context``
    supplies the session engine, kernel and store.

    ``journal_dir`` reroutes the identical shard structure through the
    campaign fabric (:mod:`repro.fabric`): shards publish durably as they
    finish, a killed run resumes from the last published shard, and the
    shard space is content-addressed — a sweep touching this ``num_faults``
    against the same (suite, scenario, seed) reuses these shards.  The
    no-journal path stays the in-memory fast case.
    """
    backend, kernel = _resolve_shipping(fpva, context)
    if journal_dir is not None:
        return _run_journaled(
            fpva, vectors, (num_faults,), trials, seed,
            include_control_leaks, keep_undetected, scenario, shard_trials,
            backend, kernel, workers, journal_dir, resume,
        )[num_faults]
    payloads = _shard_payloads(
        fpva,
        vectors,
        num_faults,
        trials,
        seed,
        include_control_leaks,
        keep_undetected,
        scenario,
        shard_trials,
        backend,
        kernel,
    )
    if workers <= 1 or len(payloads) <= 1:
        session = _shard_session(fpva, backend, kernel)
        shards = [_run_shard(p, session) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_run_shard, payloads))
    return _merge(num_faults, shards, keep_undetected)


def run_sweep(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    fault_counts: Sequence[int] = (1, 2, 3, 4, 5),
    trials: int = 200,
    seed: int = 0,
    workers: int = 1,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    shard_trials: int = SHARD_TRIALS,
    context=None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> dict[int, CampaignResult]:
    """The paper's k-faults sweep, with all (k, shard) tasks in one pool.

    Flattening the sweep before fanning out keeps every worker busy even
    when individual fault counts have few shards.  Per-(k, shard) streams
    come from ``mix_seed(seed, k, shard)`` directly — the fault count is
    mixed in by the finalizer, so no ``seed + k`` arithmetic (whose streams
    collide across sweeps) ever touches the seed.

    ``journal_dir`` reroutes the identical shard structure through the
    campaign fabric: every completed shard publishes atomically into the
    journal, a killed sweep resumes from the last published shard (with
    any worker count — the merge is bit-identical regardless), and
    re-running a finished sweep simulates nothing; ``resume=True``
    additionally insists the journal already exists.
    """
    backend, kernel = _resolve_shipping(fpva, context)
    if journal_dir is not None:
        return _run_journaled(
            fpva, vectors, tuple(fault_counts), trials, seed,
            include_control_leaks, keep_undetected, scenario, shard_trials,
            backend, kernel, workers, journal_dir, resume,
        )
    tagged: list[tuple[int, tuple]] = []
    for k in fault_counts:
        for payload in _shard_payloads(
            fpva,
            vectors,
            k,
            trials,
            seed,
            include_control_leaks,
            keep_undetected,
            scenario,
            shard_trials,
            backend,
            kernel,
        ):
            tagged.append((k, payload))
    if workers <= 1 or len(tagged) <= 1:
        session = _shard_session(fpva, backend, kernel)
        shard_results = [(k, _run_shard(p, session)) for k, p in tagged]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_run_shard, [p for _, p in tagged])
            shard_results = [(k, r) for (k, _), r in zip(tagged, results)]
    by_k: dict[int, list[CampaignResult]] = {k: [] for k in fault_counts}
    for k, shard in shard_results:
        by_k[k].append(shard)
    return {
        k: _merge(k, shards, keep_undetected) for k, shards in by_k.items()
    }
