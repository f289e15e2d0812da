"""Kernel propagation backends, each pinned to the object reference.

* both backends (:class:`WordBackend`, :class:`TileBackend`) produce
  **bit identical** readings to the ``engine="object"`` reference;
* a :class:`~repro.store.KernelStore`-persisted kernel warm-loads and
  replays identical readings under either backend (artifacts are
  backend-agnostic);
* a kernel attaches :class:`TileBackend` on first use, and
  :meth:`~repro.sim.kernel.ReachabilityKernel.set_backend` swaps in
  another backend built for the same kernel.
"""

from __future__ import annotations

import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.fpva import full_layout, table1_layout
from repro.sim import ChipUnderTest, FaultDictionary, PressureSimulator
from repro.sim.backends import (
    KernelBackend,
    TileBackend,
    WordBackend,
    pick_tile_words,
)
from repro.sim.campaign import run_campaign
from repro.sim.kernel import ReachabilityKernel, _pack_words, _unpack_words


def _kernel(fpva, backend_cls):
    kernel = ReachabilityKernel(fpva)
    return kernel.set_backend(backend_cls(kernel))


def _random_scenarios(kernel, rng, count):
    """(open_mask, blocked_mask) pairs spanning sparse and dense patterns."""
    out = []
    for _ in range(count):
        density = rng.choice((0.1, 0.5, 0.9))
        open_mask = sum(
            1 << i for i in range(kernel.n_valves) if rng.random() < density
        )
        blocked_mask = sum(
            1 << i for i in range(kernel.n_edges) if rng.random() < 0.15
        )
        out.append((open_mask, blocked_mask))
    # Edge words: all-closed and all-open scenarios.
    out.append((0, 0))
    out.append(((1 << kernel.n_valves) - 1, 0))
    return out


@pytest.fixture(scope="module")
def fpva():
    return table1_layout(5)


@pytest.fixture(scope="module")
def reference(fpva):
    """Object-engine readings for a fixed scenario set (the ground truth)."""
    kernel = ReachabilityKernel(fpva)
    scenarios = _random_scenarios(kernel, random.Random(7), 150)
    sim = PressureSimulator(fpva, engine="object")
    valve_order = list(kernel.valve_index)
    edge_order = list(kernel.edge_index)
    rows = []
    for open_mask, blocked_mask in scenarios:
        opened = frozenset(
            v for i, v in enumerate(valve_order) if (open_mask >> i) & 1
        )
        blocked = frozenset(
            e for i, e in enumerate(edge_order) if (blocked_mask >> i) & 1
        )
        readings = sim.meter_readings(opened, blocked=blocked)
        rows.append([readings[name] for name in kernel.sink_names])
    return scenarios, np.array(rows, dtype=bool)


@pytest.mark.parametrize(
    "backend_cls", [WordBackend, TileBackend], ids=["word", "tile"]
)
class TestBackendEquivalence:
    """Both backends bit-identical to the object engine."""

    def test_batched_matches_object_reference(self, fpva, reference, backend_cls):
        scenarios, expected = reference
        kernel = _kernel(fpva, backend_cls)
        got = kernel.batch_readings(scenarios)
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_scalar_matches_object_reference(self, fpva, reference, backend_cls):
        scenarios, expected = reference
        kernel = _kernel(fpva, backend_cls)
        for (open_mask, blocked_mask), row in zip(scenarios[:40], expected):
            readings = kernel.readings(open_mask, blocked_mask)
            assert [readings[s] for s in kernel.sink_names] == list(row)

    def test_reach_matches_scalar_reference(self, fpva, backend_cls):
        """All-node batched reach equals the scalar BFS, node for node."""
        kernel = _kernel(fpva, backend_cls)
        scenarios = _random_scenarios(kernel, random.Random(11), 20)

        def bits(mask, width):
            return [(mask >> i) & 1 for i in range(width)]

        open_bool = np.array(
            [bits(o, kernel.n_valves) for o, _ in scenarios], dtype=bool
        )
        blocked_bool = np.array(
            [bits(b, kernel.n_edges) for _, b in scenarios], dtype=bool
        )
        reach = kernel.backend.reach_words(
            _pack_words(open_bool), _pack_words(blocked_bool),
            (len(scenarios) + 63) // 64,
        )
        got = _unpack_words(reach, len(scenarios))
        for (open_mask, blocked_mask), row in zip(scenarios, got):
            assert bytes(kernel.reach(open_mask, blocked_mask)) == bytes(
                row.astype(np.uint8)
            )

    def test_odd_batch_widths(self, fpva, backend_cls):
        """Non-multiple-of-64 batches exercise the padded tail word."""
        kernel = _kernel(fpva, backend_cls)
        ref_kernel = _kernel(fpva, WordBackend)
        rng = random.Random(3)
        for size in (1, 63, 64, 65, 130):
            scenarios = _random_scenarios(kernel, rng, size)[:size]
            assert np.array_equal(
                kernel.batch_readings(scenarios),
                ref_kernel.batch_readings(scenarios),
            )

    def test_warm_start_roundtrip(self, fpva, reference, backend_cls, tmp_path):
        """A persisted kernel loads into either backend identically."""
        scenarios, expected = reference
        seed_ctx = ExecutionContext(fpva, cache_dir=tmp_path)
        seed_ctx.kernel  # cold compile persists the artifact
        assert seed_ctx.kernel_compiles == 1
        ctx = ExecutionContext(fpva, cache_dir=tmp_path)
        kernel = ctx.kernel
        assert ctx.kernel_loads == 1 and ctx.kernel_compiles == 0
        kernel.set_backend(backend_cls(kernel))
        assert np.array_equal(kernel.batch_readings(scenarios), expected)

    def test_pickle_roundtrip(self, fpva, backend_cls):
        """Shard payloads carry the backend; readings survive the trip."""
        kernel = _kernel(fpva, backend_cls)
        scenarios = _random_scenarios(kernel, random.Random(5), 40)
        expected = kernel.batch_readings(scenarios)
        clone = pickle.loads(pickle.dumps(kernel))
        assert type(clone.backend) is backend_cls
        assert np.array_equal(clone.batch_readings(scenarios), expected)


class TestRegistry:
    def test_set_backend_rejects_foreign_instances(self, fpva):
        kernel = ReachabilityKernel(fpva)
        other = ReachabilityKernel(full_layout(3, 3))
        with pytest.raises(ValueError, match="different kernel"):
            kernel.set_backend(WordBackend(other))
        with pytest.raises(TypeError, match="KernelBackend"):
            kernel.set_backend("word")

    def test_pick_tile_words(self):
        # Small batches fit one tile exactly; huge batches cap at 32 words.
        assert pick_tile_words(1) == 1
        assert pick_tile_words(64) == 1
        assert pick_tile_words(65) == 2
        assert pick_tile_words(256) == 4
        assert pick_tile_words(257) == 5
        assert pick_tile_words(1024) == 16
        assert pick_tile_words(4096) == 32
        assert pick_tile_words(10**6) == 32


class TestLegacyShims:
    """The engine routing that replaced the pre-session ``backend=``
    spellings: an ``engine="object"`` session takes the legacy
    (object-engine) paths, bit-identically, and nothing warns."""

    def test_default_spellings_do_not_warn(self, fpva):
        vectors = generate_suite(fpva).all_vectors()[:4]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_campaign(fpva, vectors, num_faults=1, trials=3, seed=1)
            FaultDictionary(fpva, vectors, universe=[])

    def test_dictionary_legacy_spelling_routes_to_object(self, fpva):
        vectors = generate_suite(fpva).all_vectors()
        ref = FaultDictionary(
            fpva, vectors, universe=[],
            context=ExecutionContext(fpva, engine="object"),
        )
        assert ref.backend == "legacy"

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(0, 2**16))
    def test_campaign_shim_bit_identical(self, seed):
        """Property: the kernel and object engines agree trial for trial."""
        fpva = full_layout(3, 3)
        vectors = generate_suite(fpva).all_vectors()
        kwargs = dict(num_faults=2, trials=10, seed=seed)
        reference = run_campaign(
            fpva, vectors, context=ExecutionContext(fpva, engine="object"),
            **kwargs,
        )
        batched = run_campaign(
            fpva, vectors, context=ExecutionContext(fpva), **kwargs
        )
        assert (reference.trials, reference.detected) == (
            batched.trials,
            batched.detected,
        )
        assert reference.undetected_examples == batched.undetected_examples


class TestBackendObjects:
    def test_describe_and_repr(self, fpva):
        kernel = ReachabilityKernel(fpva)
        backend = TileBackend(kernel)
        assert "tile" in backend.describe()
        assert fpva.name in repr(backend)
        assert isinstance(backend, KernelBackend)

    def test_base_reach_words_is_abstract(self, fpva):
        kernel = ReachabilityKernel(fpva)
        with pytest.raises(NotImplementedError):
            KernelBackend(kernel).reach_words(
                np.zeros((kernel.n_valves, 1), dtype=np.uint64), None, 1
            )

    def test_tile_plan_compiles_once(self, fpva):
        kernel = ReachabilityKernel(fpva)
        kernel.batch_readings([(0, 0), (1, 0)])
        assert isinstance(kernel.backend, TileBackend)  # attached on first use
        plan = kernel.backend.plan
        kernel.batch_readings([(3, 0)] * 70, tile_words=1)
        assert kernel.backend.plan is plan
