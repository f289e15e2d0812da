"""Sharded parallel campaigns: determinism and merge correctness."""

import pytest

from repro.core import generate_suite
from repro.engine import get_scenario, run_campaign, run_sweep
from repro.engine.parallel import _mix_seed
from repro.fpva import full_layout
from repro.sim import run_campaign as run_campaign_serial


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="parallel-4x4")
    return fpva, generate_suite(fpva).all_vectors()


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
    )


class TestDeterminism:
    def test_workers_1_vs_4_identical(self, bundle):
        """Satellite: the aggregate is a function of the seed alone."""
        fpva, vectors = bundle
        kwargs = dict(num_faults=2, trials=120, seed=7, shard_trials=25)
        serial = run_campaign(fpva, vectors, workers=1, **kwargs)
        pooled = run_campaign(fpva, vectors, workers=4, **kwargs)
        assert _result_key(serial) == _result_key(pooled)

    def test_workers_1_vs_4_identical_with_scenario(self, bundle):
        fpva, vectors = bundle
        kwargs = dict(
            num_faults=1,
            trials=80,
            seed=3,
            shard_trials=20,
            scenario=get_scenario("mixed"),
        )
        serial = run_campaign(fpva, vectors, workers=1, **kwargs)
        pooled = run_campaign(fpva, vectors, workers=4, **kwargs)
        assert _result_key(serial) == _result_key(pooled)

    def test_sweep_workers_independent(self, bundle):
        fpva, vectors = bundle
        kwargs = dict(
            fault_counts=(1, 2), trials=60, seed=5, shard_trials=15,
            scenario=get_scenario("intermittent"),
        )
        serial = run_sweep(fpva, vectors, workers=1, **kwargs)
        pooled = run_sweep(fpva, vectors, workers=4, **kwargs)
        assert set(serial) == set(pooled) == {1, 2}
        for k in serial:
            assert _result_key(serial[k]) == _result_key(pooled[k])

    def test_repeat_runs_identical(self, bundle):
        fpva, vectors = bundle
        first = run_campaign(fpva, vectors, num_faults=2, trials=50, seed=11, workers=2)
        second = run_campaign(fpva, vectors, num_faults=2, trials=50, seed=11, workers=2)
        assert _result_key(first) == _result_key(second)


class TestSharding:
    def test_uneven_trials_fully_executed(self, bundle):
        fpva, vectors = bundle
        result = run_campaign(
            fpva, vectors, num_faults=1, trials=37, seed=0, workers=2,
            shard_trials=10,
        )
        assert result.trials == 37

    def test_mix_seed_deterministic_and_spread(self):
        assert _mix_seed(0, 1, 0) == _mix_seed(0, 1, 0)
        seeds = {_mix_seed(0, k, s) for k in range(1, 6) for s in range(8)}
        assert len(seeds) == 40  # no collisions across (k, shard)

    def test_mix_seed_no_collisions_across_seed_and_k(self):
        """Satellite: naive ``seed + k`` sweeps collide — ``(seed=0, k=2)``
        and ``(seed=1, k=1)`` would draw identical chips.  The splitmix64
        route must keep every (seed, k, shard) stream distinct."""
        assert _mix_seed(0, 2, 0) != _mix_seed(1, 1, 0)
        grid = {
            _mix_seed(seed, k, shard)
            for seed in range(12)
            for k in range(1, 6)
            for shard in range(4)
        }
        assert len(grid) == 12 * 5 * 4

    def test_serial_sweep_routes_through_mix_seed(self, bundle):
        """campaign.run_sweep's per-k seed is mix_seed(seed, k), verbatim."""
        from repro.sim import mix_seed, run_sweep as serial_sweep

        fpva, vectors = bundle
        assert mix_seed(0, 2) == _mix_seed(0, 2, 0)
        sweep = serial_sweep(fpva, vectors, fault_counts=(2,), trials=15, seed=0)
        direct = run_campaign_serial(
            fpva, vectors, num_faults=2, trials=15, seed=mix_seed(0, 2)
        )
        assert _result_key(sweep[2]) == _result_key(direct)

    def test_detection_rate_comparable_to_serial(self, bundle):
        """Sharding changes RNG streams, not statistics: the paper's
        all-detected result must survive the parallel path."""
        fpva, vectors = bundle
        sharded = run_campaign(
            fpva, vectors, num_faults=2, trials=100, seed=21, workers=4,
            shard_trials=25,
        )
        serial = run_campaign_serial(
            fpva, vectors, num_faults=2, trials=100, seed=21
        )
        assert sharded.all_detected and serial.all_detected


class TestFabricPath:
    """run_sweep/run_campaign rerouted through the campaign fabric."""

    def test_sweep_worker_count_invariant_under_journal(self, bundle, tmp_path):
        """Satellite: in-memory, journaled-serial and journaled-pooled
        sweeps are one bit-identical result."""
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(1, 2), trials=60, seed=5, shard_trials=15)
        memory = run_sweep(fpva, vectors, workers=1, **kwargs)
        serial = run_sweep(
            fpva, vectors, workers=1, journal_dir=tmp_path / "serial", **kwargs
        )
        pooled = run_sweep(
            fpva, vectors, workers=3, journal_dir=tmp_path / "pooled", **kwargs
        )
        assert set(memory) == set(serial) == set(pooled)
        for k in memory:
            assert _result_key(memory[k]) == _result_key(serial[k])
            assert _result_key(memory[k]) == _result_key(pooled[k])
            assert memory[k].undetected_trials == serial[k].undetected_trials
            assert memory[k].undetected_trials == pooled[k].undetected_trials

    def test_campaign_journal_matches_in_memory(self, bundle, tmp_path):
        fpva, vectors = bundle
        kwargs = dict(num_faults=2, trials=50, seed=11, shard_trials=20)
        memory = run_campaign(fpva, vectors, workers=2, **kwargs)
        journaled = run_campaign(
            fpva, vectors, workers=2, journal_dir=tmp_path / "j", **kwargs
        )
        assert _result_key(memory) == _result_key(journaled)

    def test_finished_journal_rerun_simulates_nothing(
        self, bundle, tmp_path, monkeypatch
    ):
        """Re-running a completed sweep is a pure cache hit: the second
        pass must never reach the shard executor."""
        import repro.engine.parallel as parallel

        fpva, vectors = bundle
        kwargs = dict(
            fault_counts=(1, 2), trials=40, seed=9, shard_trials=15,
            journal_dir=tmp_path / "j",
        )
        first = run_sweep(fpva, vectors, workers=1, **kwargs)

        def _boom(payload):
            raise AssertionError("cache-hit rerun re-simulated a shard")

        monkeypatch.setattr(parallel, "_run_shard", _boom)
        second = run_sweep(fpva, vectors, workers=1, resume=True, **kwargs)
        assert set(first) == set(second)
        for k in first:
            assert _result_key(first[k]) == _result_key(second[k])


class TestFixedCosts:
    """A serial sweep builds its fault universe and evaluator once.

    Every shard of one sweep runs on one session, so neither cost scales
    with the shard count, and the shared session changes no result.
    """

    @pytest.fixture
    def counters(self, monkeypatch):
        import repro.sim.campaign as campaign
        from repro.sim.kernel import BatchEvaluator

        counts = {"universe": 0, "evaluator": 0}
        universe = campaign.fault_universe
        init = BatchEvaluator.__init__

        def counted_universe(*args, **kwargs):
            counts["universe"] += 1
            return universe(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            counts["evaluator"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(campaign, "fault_universe", counted_universe)
        monkeypatch.setattr(BatchEvaluator, "__init__", counted_init)
        return counts

    @staticmethod
    def _reference(fpva, vectors, fault_counts, **kwargs):
        from repro.context import ExecutionContext

        return run_sweep(
            fpva, vectors, fault_counts=fault_counts, workers=1,
            context=ExecutionContext(fpva, engine="object"), **kwargs,
        )

    @pytest.mark.parametrize("store", [False, True], ids=["shipped", "stored"])
    @pytest.mark.parametrize("journal", [False, True], ids=["memory", "journal"])
    def test_sweep_pays_fixed_costs_once(
        self, bundle, tmp_path, counters, store, journal
    ):
        from repro.context import ExecutionContext

        fpva, vectors = bundle
        kwargs = dict(trials=45, seed=13, shard_trials=10)
        context = ExecutionContext(
            fpva, cache_dir=tmp_path / "cache" if store else None
        )
        counters.update(universe=0, evaluator=0)
        sweep = run_sweep(
            fpva, vectors, fault_counts=(1, 2, 3), workers=1, context=context,
            journal_dir=tmp_path / "j" if journal else None, **kwargs,
        )
        assert counters == {"universe": 1, "evaluator": 1}
        reference = self._reference(fpva, vectors, (1, 2, 3), **kwargs)
        for k in reference:
            assert _result_key(sweep[k]) == _result_key(reference[k])
            assert sweep[k].undetected_trials == reference[k].undetected_trials

    def test_campaign_pays_fixed_costs_once(self, bundle, counters):
        fpva, vectors = bundle
        kwargs = dict(trials=45, seed=17, shard_trials=10)
        counters.update(universe=0, evaluator=0)
        result = run_campaign(fpva, vectors, num_faults=2, workers=1, **kwargs)
        assert counters == {"universe": 1, "evaluator": 1}
        reference = self._reference(fpva, vectors, (2,), **kwargs)[2]
        assert _result_key(result) == _result_key(reference)

    def test_each_sweep_gets_its_own_session(self, bundle, counters):
        """Sessions end with their sweep: a second sweep rebuilds."""
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(1,), trials=20, seed=1, workers=1)
        run_sweep(fpva, vectors, **kwargs)
        counters.update(universe=0, evaluator=0)
        run_sweep(fpva, vectors, **kwargs)
        assert counters == {"universe": 1, "evaluator": 1}
