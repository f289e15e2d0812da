"""Stable content digests for compiled artifacts.

Cached artifacts are keyed by what they were compiled *from*, never by
where or when: a kernel by the array's structure, a dictionary by the
(array, vector suite, fault universe, cardinality) quadruple — the
scenario is captured through the ordered universe it induces.  Two
processes that describe the same workload therefore address the same
cache entry, and any change to layout, suite, universe contents/order or
cardinality changes the digest, which is the entire invalidation story:
stale entries are never overwritten, they are simply never addressed
again.

Encodings are canonical nested tuples of primitives serialized as compact
JSON and hashed with BLAKE2b.  The array's *display name* is deliberately
excluded from the layout key (two identically-shaped arrays with
different labels share artifacts); port names are included because meter
readings — and therefore syndromes — are keyed by them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.faults import (
    ChannelBlocked,
    ControlLeak,
    Fault,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
)

#: Bump when any persisted format or canonical encoding changes shape;
#: old cache entries then stop being addressed (never reinterpreted).
STORE_FORMAT_VERSION = 1


def _edge_key(edge: Edge) -> tuple[int, int, int, int]:
    return (edge.a.r, edge.a.c, edge.b.r, edge.b.c)


def layout_key(fpva: FPVA) -> tuple:
    """Canonical structural identity of an array (name excluded)."""
    return (
        fpva.nr,
        fpva.nc,
        tuple(sorted((c.r, c.c) for c in fpva.obstacles)),
        tuple(sorted(_edge_key(e) for e in fpva.channels)),
        tuple(
            (p.kind.value, p.side.value, p.index, p.name) for p in fpva.ports
        ),
    )


def vector_key(vector: TestVector) -> tuple:
    """Canonical identity of one test vector (provenance excluded)."""
    return (
        vector.name,
        vector.kind.value,
        tuple(sorted(_edge_key(e) for e in vector.open_valves)),
        tuple(sorted((name, bool(v)) for name, v in vector.expected.items())),
    )


def fault_key(fault: Fault) -> tuple:
    """Canonical identity of one fault hypothesis."""
    if isinstance(fault, StuckAt0):
        return ("sa0", _edge_key(fault.valve))
    if isinstance(fault, StuckAt1):
        return ("sa1", _edge_key(fault.valve))
    if isinstance(fault, ControlLeak):
        return ("leak", _edge_key(fault.a), _edge_key(fault.b))
    if isinstance(fault, IntermittentStuckAt):
        return (
            "flaky",
            _edge_key(fault.valve),
            bool(fault.stuck_open),
            float(fault.rate),
            int(fault.salt),
        )
    if isinstance(fault, ChannelBlocked):
        return ("blocked", _edge_key(fault.edge))
    raise TypeError(f"unknown fault kind {fault!r}")


def canonical_json(value: Any) -> str:
    """The compact, key-sorted JSON encoding every digest hashes."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _hash_text(payload: str) -> str:
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def digest_of(*parts: Any) -> str:
    """BLAKE2b hex digest of canonically JSON-serialized parts."""
    return _hash_text(canonical_json(parts))


def digest_int(digest: str, bits: int = 64) -> int:
    """The leading ``bits`` of a hex content digest as an integer.

    Content digests double as deterministic per-artifact entropy: the
    fabric's retry backoff derives its jitter from the shard digest, so
    two workers retrying the same shard de-synchronize identically on
    every host with no RNG state to persist.
    """
    return int(digest[: bits // 4], 16)


def kernel_digest(fpva: FPVA) -> str:
    """Cache key of a compiled :class:`ReachabilityKernel`."""
    return digest_of("kernel", STORE_FORMAT_VERSION, layout_key(fpva))


def scenario_key(scenario: Any, include_control_leaks: bool = True) -> tuple:
    """Canonical identity of a campaign's fault workload.

    ``None`` is the paper's default stuck-at space, whose universe is a
    function of ``include_control_leaks`` alone.  Registered scenarios are
    frozen dataclasses, so ``repr`` canonically captures their parameters
    (a custom scenario must likewise keep its ``repr`` a pure function of
    its sampling behaviour to address shards correctly).
    """
    if scenario is None:
        return ("default", bool(include_control_leaks))
    return ("scenario", scenario.name, repr(scenario))


def campaign_key(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    scenario: Any,
    include_control_leaks: bool,
    seed: int,
    shard_trials: int,
    keep_undetected: int,
) -> tuple:
    """The shared identity prefix of a campaign's shard space.

    Deliberately excludes the fault-count list and the total trial count:
    a shard is addressed by what it *simulates*, so a single-``k``
    campaign and a sweep containing that ``k`` hit the same shard
    artifacts, and extending ``trials`` reuses every full shard already
    published.
    """
    return (
        STORE_FORMAT_VERSION,
        layout_key(fpva),
        tuple(vector_key(v) for v in vectors),
        scenario_key(scenario, include_control_leaks),
        int(seed),
        int(shard_trials),
        int(keep_undetected),
    )


def campaign_digest(key_json: str, fault_counts: Sequence[int], trials: int) -> str:
    """Manifest identity of one concrete campaign/sweep invocation.

    ``key_json`` is ``canonical_json(campaign_key(...))``: the key is the
    bulk of the payload (every vector's valve list), so a spec encodes it
    once and splices it in.  The result equals
    ``digest_of("campaign", key, fault_counts, trials)``.
    """
    counts = canonical_json([int(k) for k in fault_counts])
    return _hash_text(f'["campaign",{key_json},{counts},{int(trials)}]')


def shard_digest(key_json: str, num_faults: int, shard: int, trials: int) -> str:
    """Content address of one ``(campaign key, k, shard)`` work unit.

    ``key_json`` is the spliced-in key encoding, as for
    :func:`campaign_digest`; the result equals
    ``digest_of("shard", key, num_faults, shard, trials)``.  ``trials``
    is the shard's own size (the tail shard of an uneven split is a
    different artifact from a full one).
    """
    return _hash_text(
        f'["shard",{key_json},{int(num_faults)},{int(shard)},{int(trials)}]'
    )


def layout_digest(fpva: FPVA) -> str:
    """Structural identity of one array as a standalone digest.

    Recorded in dictionary lineage metadata so ancestor resolution can
    compare layouts across stored artifacts without re-deriving (or even
    having) the arrays they were built from.
    """
    return digest_of("layout", STORE_FORMAT_VERSION, layout_key(fpva))


def universe_digest(universe: Iterable[Fault]) -> str:
    """Identity of one *ordered* fault universe as a standalone digest.

    Order-sensitive for the same reason :func:`dictionary_digest` is:
    stored fault sets are universe indices, so two artifacts are
    row-compatible only when their universes match element for element.
    """
    return digest_of(
        "universe", STORE_FORMAT_VERSION, [fault_key(f) for f in universe]
    )


def suite_digests(vectors: Sequence[TestVector]) -> list[str]:
    """Per-vector content digests, in suite order.

    The unit of dictionary reuse: a stored artifact whose vector-digest
    *set* is a subset of a new suite's already holds every one of that
    suite's columns for those vectors (syndromes are per-vector readings),
    whatever order either suite lists them in.
    """
    return [
        digest_of("vector", STORE_FORMAT_VERSION, vector_key(v))
        for v in vectors
    ]


def dictionary_digest(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    universe: Iterable[Fault],
    max_cardinality: int,
) -> str:
    """Cache key of a :class:`FaultDictionary` syndrome table.

    The universe is hashed *in order* because stored fault sets are
    encoded as universe indices — a reordered universe is a different
    artifact even when its contents coincide.
    """
    return digest_of(
        "dictionary",
        STORE_FORMAT_VERSION,
        layout_key(fpva),
        [vector_key(v) for v in vectors],
        [fault_key(f) for f in universe],
        int(max_cardinality),
    )
