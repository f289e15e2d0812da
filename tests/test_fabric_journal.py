"""Property suite for the journal state machine.

Hypothesis drives arbitrary interleavings of ``claim`` / ``complete`` /
``crash`` / ``clock-advance`` across several simulated workers sharing
one real journal directory, then checks the invariants the fabric's
correctness rests on:

* **no shard is lost** — a final serial drain always reaches all-done;
* **no shard is double-counted** — the merged sweep has exactly the
  campaign's trial count per ``k``, and the store kept the *first*
  publication of every shard;
* **merging is schedule-independent** — the merged result equals the
  all-serial reference bit-for-bit, whatever the interleaving did.

Shard "simulation" is synthesized deterministically from each
descriptor, so the properties exercise the journal and merge machinery
(the expensive real simulation is covered by the crash harness).
"""

from __future__ import annotations

import pickle
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectors import TestVector, VectorKind
from repro.fabric import DONE, CampaignJournal, CampaignSpec, ShardStore
from repro.fpva import full_layout
from repro.sim import CampaignResult, merge_shards
from repro.store.digest import digest_of

LEASE_TIMEOUT = 60.0
N_WORKERS = 3

# One tiny array, no simulation: vectors never get executed here, so an
# empty suite keeps CampaignSpec construction cheap.
FPVA = full_layout(2, 2, name="journal-2x2")
SPEC = CampaignSpec(
    fpva=FPVA,
    vectors=(),
    fault_counts=(1, 2),
    trials=25,
    seed=3,
    shard_trials=10,
)
DESCRIPTORS = SPEC.shards()


def synth_result(descriptor) -> CampaignResult:
    """A deterministic stand-in for simulating ``descriptor``."""
    rng = random.Random(descriptor.seed)
    n_undetected = rng.randrange(0, min(4, descriptor.trials + 1))
    undetected = sorted(rng.sample(range(descriptor.trials), n_undetected))
    return CampaignResult(
        num_faults=descriptor.num_faults,
        trials=descriptor.trials,
        detected=descriptor.trials - n_undetected,
        undetected_examples=[
            ("synthetic-fault", descriptor.digest, trial)
            for trial in undetected
        ],
        undetected_trials=undetected,
    )


def serial_reference():
    out = {}
    for k in SPEC.fault_counts:
        out[k] = merge_shards(
            k,
            [(d.shard, synth_result(d)) for d in SPEC.shards_for(k)],
            SPEC.keep_undetected,
        )
    return out


REFERENCE = serial_reference()


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
        result.undetected_trials,
    )


ops = st.lists(
    st.tuples(
        st.sampled_from(["claim", "complete", "crash", "tick"]),
        st.integers(min_value=0, max_value=N_WORKERS - 1),
        st.integers(min_value=1, max_value=int(LEASE_TIMEOUT * 1.5)),
    ),
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_interleavings_preserve_every_invariant(ops):
    with tempfile.TemporaryDirectory() as root:
        clock = FakeClock()
        journals = [
            CampaignJournal(
                root,
                lease_timeout=LEASE_TIMEOUT,
                clock=clock,
                owner=f"sim-w{i}",
            )
            for i in range(N_WORKERS)
        ]
        journals[0].ensure(SPEC)
        holding: list = [None] * N_WORKERS  # worker -> claimed descriptor
        first_publisher: dict[str, str] = {}

        for op, w, dt in ops:
            journal = journals[w]
            if op == "claim" and holding[w] is None:
                holding[w] = journal.claim(DESCRIPTORS)
            elif op == "complete" and holding[w] is not None:
                descriptor, holding[w] = holding[w], None
                first_publisher.setdefault(descriptor.digest, journal.owner)
                journal.publish(descriptor, synth_result(descriptor))
            elif op == "crash" and holding[w] is not None:
                # Death mid-simulate: the claim is forgotten, the lease
                # file stays behind until someone reclaims it.
                holding[w] = None
            elif op == "tick":
                clock.now += dt

        # Whatever happened, a final drain must finish the campaign:
        # leases left by "crashed" workers go stale once the clock moves
        # past the timeout, and done shards are never re-claimable.
        clock.now += LEASE_TIMEOUT + 1.0
        finisher = CampaignJournal(
            root, lease_timeout=LEASE_TIMEOUT, clock=clock, owner="finisher"
        )
        drained = 0
        while (descriptor := finisher.claim(DESCRIPTORS)) is not None:
            first_publisher.setdefault(descriptor.digest, finisher.owner)
            finisher.publish(descriptor, synth_result(descriptor))
            drained += 1
        assert drained <= len(DESCRIPTORS)

        # No shard lost.
        store = ShardStore(f"{root}/shards")
        assert all(finisher.state(d) == DONE for d in DESCRIPTORS)

        # No shard double-counted: the store kept the first publication
        # (idempotent publish), and no lease outlives its shard.
        for descriptor in DESCRIPTORS:
            meta = store.meta(descriptor.digest)
            assert meta["worker"] == first_publisher[descriptor.digest]
            assert not finisher._lease_path(descriptor.digest).exists()

        # Schedule independence: merged == the all-serial reference.
        for k in SPEC.fault_counts:
            merged = merge_shards(
                k,
                [
                    (d.shard, store.load(d.digest))
                    for d in SPEC.shards_for(k)
                ],
                SPEC.keep_undetected,
            )
            assert merged.trials == SPEC.trials
            assert _result_key(merged) == _result_key(REFERENCE[k])


@settings(max_examples=15, deadline=None)
@given(
    order=st.permutations(list(range(len(DESCRIPTORS)))),
    keep=st.integers(min_value=0, max_value=8),
)
def test_merge_invariant_under_completion_order(order, keep):
    """Publishing shards in any order merges to the serial result."""
    with tempfile.TemporaryDirectory() as root:
        store = ShardStore(root)
        for index in order:
            descriptor = DESCRIPTORS[index]
            store.publish(descriptor, synth_result(descriptor))
        for k in SPEC.fault_counts:
            serial = merge_shards(
                k,
                [(d.shard, synth_result(d)) for d in SPEC.shards_for(k)],
                keep,
            )
            loaded = [
                (d.shard, store.load(d.digest)) for d in SPEC.shards_for(k)
            ]
            random.Random(sum(order)).shuffle(loaded)
            assert _result_key(
                merge_shards(k, loaded, keep)
            ) == _result_key(serial)


# -- shard addressing -----------------------------------------------------
# Published journals are addressed by these digests: any change to how a
# spec encodes its key orphans every shard already on disk.  The literals
# below were computed before the key encoding was memoized.


def _golden_spec(**overrides) -> CampaignSpec:
    fpva = full_layout(3, 3, name="golden-3x3")
    valves = sorted(fpva.valves, key=lambda e: (e.a.r, e.a.c, e.b.r, e.b.c))
    sinks = sorted(p.name for p in fpva.ports if p.kind.value == "sink")
    vectors = (
        TestVector("p0", VectorKind.FLOW_PATH, frozenset(valves[:4]),
                   {name: True for name in sinks}),
        TestVector("c0", VectorKind.CUT_SET, frozenset(valves[4:6]),
                   {name: False for name in sinks}),
    )
    params = dict(fpva=fpva, vectors=vectors, fault_counts=(1, 3),
                  trials=25, seed=7, shard_trials=10)
    params.update(overrides)
    return CampaignSpec(**params)


GOLDEN_CAMPAIGN = "feafb05f4a0536b6daccc4ec6c211725"
GOLDEN_SHARDS = [
    (1, 0, 10, "e2bdcf34b3aa5c877d8df014b447b728"),
    (1, 1, 10, "2681d8e5e67a8528cd2dfb7843ec2124"),
    (1, 2, 5, "d23567bb2b7619a4642cadd1cef49b44"),
    (3, 0, 10, "0d2ad27092c27d782dfb817928fb0e5c"),
    (3, 1, 10, "8277dc2a448b9b2134d506aefa7a02e9"),
    (3, 2, 5, "f92e496920af5ecde6a144fb81f4af06"),
]


def test_shard_and_campaign_digests_match_golden_literals():
    spec = _golden_spec()
    assert spec.digest == GOLDEN_CAMPAIGN
    assert [
        (d.num_faults, d.shard, d.trials, d.digest) for d in spec.shards()
    ] == GOLDEN_SHARDS
    assert spec.manifest()["digest"] == GOLDEN_CAMPAIGN
    assert spec.manifest()["shards"] == len(GOLDEN_SHARDS)


@settings(max_examples=40, deadline=None)
@given(
    fault_counts=st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=3,
        unique=True,
    ),
    trials=st.integers(min_value=0, max_value=40),
    shard_trials=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**63),
    include_control_leaks=st.booleans(),
    keep_undetected=st.integers(min_value=0, max_value=12),
)
def test_spliced_digests_equal_the_generic_encoding(
    fault_counts, trials, shard_trials, seed, include_control_leaks,
    keep_undetected,
):
    spec = _golden_spec(
        fault_counts=tuple(fault_counts), trials=trials,
        shard_trials=shard_trials, seed=seed,
        include_control_leaks=include_control_leaks,
        keep_undetected=keep_undetected,
    )
    assert spec.digest == digest_of(
        "campaign", spec.key, spec.fault_counts, spec.trials
    )
    descriptors = spec.shards()
    for d in descriptors:
        assert d.digest == digest_of(
            "shard", spec.key, d.num_faults, d.shard, d.trials
        )
    assert spec.manifest()["shards"] == len(descriptors)


def test_spec_pickles_after_its_key_encoding_is_memoized():
    spec = _golden_spec()
    spec.shards()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.key_json == spec.key_json
    assert clone.digest == GOLDEN_CAMPAIGN
    assert [d.digest for d in clone.shards()] == [g for *_, g in GOLDEN_SHARDS]
