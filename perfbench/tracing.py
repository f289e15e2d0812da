"""Per-layer spans around the public calls of the ``repro`` layers.

The tracer measures each layer from outside the program: it replaces a
public function or method with a timing wrapper, at the attribute its
callers actually look up (a class attribute, or the module global a
caller imported the function under), and puts the original back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

Spans nest.  A span's *self time* is its duration minus the time of the
spans it encloses; each layer's self time during the timed pass, divided
by the pass time, is that layer's ``share.<layer>``.  Pass time no span
covers is ``share.unattributed``.  Counts and times accumulate over the
whole child run (set-up and pass), so ILP work done in a workload's
set-up shows in the ``ilp.*`` metrics too.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from collections import defaultdict

LAYERS = ("fpva", "context", "core", "ilp", "sim", "engine", "store", "fabric")

#: Every per-layer metric the traced run reports, with its unit and the
#: direction in which it improves.  Metrics a workload never touches
#: read 0.
PER_LAYER = {
    "fpva.layout_s": ("s", "lower"),
    "context.kernel_compiles": ("count", "lower"),
    "context.kernel_s": ("s", "lower"),
    "core.paths_s": ("s", "lower"),
    "core.window_solves": ("count", "lower"),
    "core.pathmodel_build_s": ("s", "lower"),
    "core.cutsets_s": ("s", "lower"),
    "core.leakage_s": ("s", "lower"),
    "core.coverage_s": ("s", "lower"),
    "core.np": ("count", "lower"),
    "core.nc": ("count", "lower"),
    "core.nl": ("count", "lower"),
    "ilp.solves": ("count", "lower"),
    "ilp.solve_s": ("s", "lower"),
    "ilp.standard_form_s": ("s", "lower"),
    "ilp.not_optimal": ("count", "lower"),
    "ilp.vars": ("count", "lower"),
    "ilp.rows": ("count", "lower"),
    "sim.fault_universe_calls": ("count", "lower"),
    "sim.fault_universe_s": ("s", "lower"),
    "sim.evaluator_builds": ("count", "lower"),
    "sim.evaluator_init_s": ("s", "lower"),
    "sim.flush_s": ("s", "lower"),
    "sim.scenarios": ("count", "lower"),
    "sim.campaign_s": ("s", "lower"),
    "sim.trials": ("count", "higher"),
    "sim.dict_build_s": ("s", "lower"),
    "sim.fault_sets": ("count", "higher"),
    "sim.syndromes": ("count", "higher"),
    "sim.tester_apply_s": ("s", "lower"),
    "sim.tester_applies": ("count", "lower"),
    "engine.adaptive_init_s": ("s", "lower"),
    "engine.diagnose_s": ("s", "lower"),
    "engine.vectors_applied": ("count", "lower"),
    "store.dict_commit_s": ("s", "lower"),
    "store.dict_load_s": ("s", "lower"),
    "store.verify_s": ("s", "lower"),
    "store.verified_bytes": ("count", "lower"),
    "store.digests": ("count", "lower"),
    "store.digest_s": ("s", "lower"),
    "store.fsyncs": ("count", "lower"),
    "store.fsync_s": ("s", "lower"),
    "fabric.drain_s": ("s", "lower"),
    "fabric.claims": ("count", "lower"),
    "fabric.claim_s": ("s", "lower"),
    "fabric.publish_s": ("s", "lower"),
    "fabric.merge_s": ("s", "lower"),
    "fabric.shards_executed": ("count", "lower"),
    "fabric.retried": ("count", "lower"),
    "fabric.healed": ("count", "lower"),
    "fabric.quarantined": ("count", "lower"),
    **{f"share.{layer}": ("fraction", "lower") for layer in LAYERS},
    "share.unattributed": ("fraction", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Nested spans and counters, kept in memory for one child run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.values: dict[str, float] = defaultdict(float)
        #: Self time per layer, accumulated only while :attr:`in_pass`.
        self.self_time: dict[str, float] = defaultdict(float)
        #: Pass time covered by outermost spans.
        self.covered = 0.0
        self.in_pass = False
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, fn, layer, metric=None, after=None, self_only=False):
        """``fn`` timed as a span of ``layer``.

        ``metric`` accumulates the span's duration (its self time when
        ``self_only``); ``after(tracer, args, result, elapsed)`` runs on
        success and records counts read off the arguments or result.
        """
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._open.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += elapsed
                elif tracer.in_pass:
                    tracer.covered += elapsed
                if tracer.in_pass:
                    tracer.self_time[layer] += elapsed - children
                if metric is not None:
                    tracer.values[metric] += (
                        elapsed - children if self_only else elapsed
                    )
            if after is not None:
                after(tracer, args, result, elapsed)
            return result

        return span

    def patch(self, owner, name, layer, metric=None, after=None, self_only=False):
        """Replace ``owner.name`` with its span until :meth:`uninstall`."""
        original = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
        self._undo.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, metric, after, self_only))

    def count(self, metric, amount=1):
        self.values[metric] += amount

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- report --------------------------------------------------------------
    def metrics(self, pass_s: float) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``.

        ``pass_s`` is the total traced pass time the shares divide.
        """
        out = {
            name: float(self.values.get(name, 0.0))
            for name in PER_LAYER
            if not name.startswith(("share.", "trace."))
        }
        for layer in LAYERS:
            out[f"share.{layer}"] = self.self_time.get(layer, 0.0) / pass_s
        out["share.unattributed"] = max(0.0, pass_s - self.covered) / pass_s
        return out


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every layer; returns ``tracer``."""
    import repro.core.coverage as coverage
    import repro.engine.parallel as parallel
    import repro.fabric as fabric
    import repro.fabric.shards as shards
    import repro.fpva as fpva
    import repro.ilp.scipy_backend as scipy_backend
    import repro.sim.campaign as campaign
    import repro.store.dictionaries as dictionaries
    import repro.store.digest as digest
    import repro.store.integrity as integrity
    import repro.store.kernels as kernels
    from repro.core.cutsets import CutSetGenerator
    from repro.core.hierarchy import HierarchicalPathGenerator
    from repro.core.leakage import LeakageGenerator
    from repro.core.pathmodel import PathCoverILP
    from repro.core.paths import FlowPathGenerator
    from repro.core.testgen import TestGenerator
    from repro.engine.adaptive import AdaptiveDiagnoser
    from repro.fabric.journal import CampaignJournal
    from repro.ilp.model import Model
    from repro.ilp.status import SolveStatus
    from repro.sim.diagnosis import FaultDictionary
    from repro.sim.kernel import BatchEvaluator, ReachabilityKernel
    from repro.sim.tester import Tester
    from repro.store.dictionaries import DictionaryStore, DictionaryWriter

    t = tracer

    def counted(metric):
        return lambda tr, args, result, elapsed: tr.count(metric)

    # fpva: layout construction, at the name the workloads look up.
    t.patch(fpva, "table1_layout", "fpva", "fpva.layout_s")

    # context: kernel compiles (warm loads go through from_arrays).
    t.patch(ReachabilityKernel, "__init__", "context", "context.kernel_s",
            counted("context.kernel_compiles"))

    # core: the generators, the path ILP model build, coverage.
    def generated(tr, args, result, elapsed):
        report = result.report
        tr.count("core.np", report.np_paths)
        tr.count("core.nc", report.nc_cuts)
        tr.count("core.nl", report.nl_leak)

    def windows(tr, args, result, elapsed):
        tr.count("core.window_solves", args[0].report.window_solves)

    t.patch(TestGenerator, "generate", "core", after=generated)
    t.patch(FlowPathGenerator, "generate", "core", "core.paths_s")
    t.patch(HierarchicalPathGenerator, "generate", "core", "core.paths_s", windows)
    t.patch(PathCoverILP, "__init__", "core", "core.pathmodel_build_s")
    t.patch(CutSetGenerator, "generate", "core", "core.cutsets_s")
    t.patch(LeakageGenerator, "generate", "core", "core.leakage_s")
    t.patch(coverage, "measure_coverage", "core", "core.coverage_s")

    # ilp: every HiGHS solve (imported by name at each call) and the
    # standard-form conversion inside it.
    def solved(tr, args, result, elapsed):
        model = args[0]
        tr.count("ilp.solves")
        tr.count("ilp.vars", model.num_variables)
        tr.count("ilp.rows", model.num_constraints)
        if result.status is not SolveStatus.OPTIMAL:
            tr.count("ilp.not_optimal")

    t.patch(scipy_backend, "solve_with_scipy", "ilp", "ilp.solve_s", solved)
    t.patch(Model, "to_standard_form", "ilp", "ilp.standard_form_s")

    # sim: campaign bodies, fault universes, batch evaluation, the
    # dictionary and the tester.
    t.patch(campaign, "fault_universe", "sim", "sim.fault_universe_s",
            counted("sim.fault_universe_calls"))
    t.patch(BatchEvaluator, "__init__", "sim", "sim.evaluator_init_s",
            counted("sim.evaluator_builds"))

    flushed: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def propagated(tr, args, result, elapsed):
        evaluator = args[0]
        distinct = evaluator.distinct_scenarios
        tr.count("sim.scenarios", distinct - flushed.get(evaluator, 0))
        flushed[evaluator] = distinct

    t.patch(BatchEvaluator, "flush", "sim", "sim.flush_s", propagated)

    def campaigned(tr, args, result, elapsed):
        tr.count("sim.trials", result.trials)

    # engine.parallel imported run_campaign as _run_serial; sim.campaign's
    # own sweep calls it by its module name.
    t.patch(parallel, "_run_serial", "sim", "sim.campaign_s", campaigned)
    t.patch(campaign, "run_campaign", "sim", "sim.campaign_s", campaigned)

    def dictionary_built(tr, args, result, elapsed):
        dictionary = args[0]
        if dictionary.build_stats.get("mode") != "warm":
            tr.count("sim.dict_build_s", elapsed)
            tr.count("sim.fault_sets", dictionary.total_fault_sets)
            tr.count("sim.syndromes", dictionary.distinct_syndromes)

    t.patch(FaultDictionary, "__init__", "sim", after=dictionary_built)
    t.patch(Tester, "apply", "sim", "sim.tester_apply_s",
            counted("sim.tester_applies"))

    # engine: adaptive diagnosis (diagnose is reported as self time).
    def diagnosed(tr, args, result, elapsed):
        tr.count("engine.vectors_applied", result.num_applied)

    t.patch(AdaptiveDiagnoser, "__init__", "engine", "engine.adaptive_init_s")
    t.patch(AdaptiveDiagnoser, "diagnose", "engine", "engine.diagnose_s",
            diagnosed, self_only=True)

    # store: content digests, dictionary writes and loads, checksum
    # verification (at every module name it is imported under) and every
    # fsync.
    t.patch(digest, "digest_of", "store", "store.digest_s",
            counted("store.digests"))
    t.patch(DictionaryWriter, "add", "store", "store.dict_commit_s")
    t.patch(DictionaryWriter, "commit", "store", "store.dict_commit_s")
    t.patch(DictionaryStore, "load", "store", "store.dict_load_s")

    def verified(tr, args, result, elapsed):
        tr.count("store.verified_bytes", len(result))

    for module in (integrity, dictionaries, kernels, shards):
        t.patch(module, "verify_file", "store", "store.verify_s", verified)
    t.patch(os, "fsync", "store", "store.fsync_s", counted("store.fsyncs"))

    # fabric: the drain (looked up through the package at each call),
    # claims, publishes and the merge's shard loads.
    def drained(tr, args, result, elapsed):
        stats = result[1]
        tr.count("fabric.shards_executed", stats.executed)
        tr.count("fabric.retried", stats.retried)
        tr.count("fabric.healed", stats.healed)
        tr.count("fabric.quarantined", len(stats.quarantined))

    def claimed(tr, args, result, elapsed):
        if result is not None:
            tr.count("fabric.claims")

    t.patch(fabric, "run_journaled_sweep", "fabric", "fabric.drain_s", drained)
    t.patch(CampaignJournal, "claim", "fabric", "fabric.claim_s", claimed)
    t.patch(CampaignJournal, "publish_result", "fabric", "fabric.publish_s")
    t.patch(shards.ShardStore, "load", "fabric", "fabric.merge_s")
    return t
