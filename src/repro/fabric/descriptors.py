"""Content-addressed shard descriptors: the fabric's unit of work.

A campaign's shard space is a pure function of its parameters — never of
worker count, execution order, or wall clock.  :class:`CampaignSpec`
captures those parameters once; :meth:`CampaignSpec.shards` enumerates the
``(k, shard)`` grid with exactly the split sizes and splitmix64 stream
seeds the in-memory pool (:mod:`repro.engine.parallel`) uses, so a
journaled run and a pool run simulate literally the same shards.

Each :class:`ShardDescriptor` carries its BLAKE2b content digest
(:func:`repro.store.digest.shard_digest`): the digest covers the layout,
the vector suite, the scenario workload, the base seed and the shard's
``(k, index, size)`` coordinates — **not** the sweep's fault-count list or
total trial count — so a single-``k`` campaign and a sweep containing that
``k`` address the same shard artifacts, and extending ``trials`` reuses
every full shard already published.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.seeding import mix_seed
from repro.store.digest import (
    campaign_digest,
    campaign_key,
    canonical_json,
    shard_digest,
)


@dataclass(frozen=True)
class ShardDescriptor:
    """One content-addressed unit of campaign work."""

    digest: str
    num_faults: int
    shard: int
    trials: int
    seed: int

    @property
    def label(self) -> str:
        """Human-readable coordinates for diagnostics and quarantine
        records (the digest alone tells an operator nothing)."""
        return f"k={self.num_faults}/shard={self.shard}"

    @property
    def cost(self) -> float:
        """Scheduler cost estimate: trial-draws dominate, and drawing a
        compatible ``k``-set rejects more as ``k`` grows."""
        return float(self.trials) * (1.0 + 0.25 * (self.num_faults - 1))


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's shard space and results.

    Picklable (the multi-process drain ships one to each worker): the
    scenario must live at module top level, exactly as the in-memory pool
    already requires, and the memoized key encoding is a plain string.
    """

    fpva: FPVA
    vectors: tuple[TestVector, ...]
    fault_counts: tuple[int, ...]
    trials: int
    seed: int = 0
    include_control_leaks: bool = True
    keep_undetected: int = 10
    scenario: object = None
    shard_trials: int = 50
    _key: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _key_json: str | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(self.vectors))
        object.__setattr__(
            self, "fault_counts", tuple(int(k) for k in self.fault_counts)
        )

    @property
    def key(self) -> tuple:
        """The campaign-level digest prefix (memoized; hashing the vector
        suite is the expensive part)."""
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                campaign_key(
                    self.fpva,
                    self.vectors,
                    self.scenario,
                    self.include_control_leaks,
                    self.seed,
                    self.shard_trials,
                    self.keep_undetected,
                ),
            )
        return self._key

    @property
    def key_json(self) -> str:
        """The canonical JSON encoding of :attr:`key` (memoized).

        Every campaign and shard digest splices this one encoding in, so
        a sweep serializes its vector suite once instead of per shard.
        """
        if self._key_json is None:
            object.__setattr__(self, "_key_json", canonical_json(self.key))
        return self._key_json

    @property
    def digest(self) -> str:
        """Manifest identity of this concrete invocation."""
        return campaign_digest(self.key_json, self.fault_counts, self.trials)

    def shards_for(self, num_faults: int) -> list[ShardDescriptor]:
        """The shard split for one fault count, in shard order."""
        key_json = self.key_json
        out = []
        shard = 0
        remaining = self.trials
        while remaining > 0:
            size = min(self.shard_trials, remaining)
            out.append(
                ShardDescriptor(
                    digest=shard_digest(key_json, num_faults, shard, size),
                    num_faults=num_faults,
                    shard=shard,
                    trials=size,
                    seed=mix_seed(self.seed, num_faults, shard),
                )
            )
            remaining -= size
            shard += 1
        return out

    def shards(self) -> list[ShardDescriptor]:
        """Every shard of the sweep, in canonical ``(k, shard)`` order."""
        out: list[ShardDescriptor] = []
        for k in self.fault_counts:
            out.extend(self.shards_for(k))
        return out

    def manifest(self) -> dict:
        """The human-inspectable journal manifest payload."""
        scenario = self.scenario
        return {
            "digest": self.digest,
            "layout": self.fpva.name,
            "vectors": len(self.vectors),
            "fault_counts": list(self.fault_counts),
            "trials": self.trials,
            "seed": self.seed,
            "include_control_leaks": self.include_control_leaks,
            "keep_undetected": self.keep_undetected,
            "scenario": getattr(scenario, "name", None),
            "shard_trials": self.shard_trials,
            "shards": len(self.fault_counts)
            * max(0, ceil(self.trials / self.shard_trials)),
        }
