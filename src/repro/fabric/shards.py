"""Atomic, content-addressed persistence for completed shard results.

One artifact per shard digest, in the store's shared layout
(:mod:`repro.store.integrity`)::

    <root>/<digest>/
        result.npz   # counts + undetected trial indices + pickled examples
        meta.json    # provenance (worker, elapsed) + checksums; written LAST

Publishing goes through :class:`~repro.store.integrity.ArtifactWriter`,
so a crashed worker never leaves a half-written shard addressable, and
:meth:`ShardStore.has` doubles as the journal's *done* predicate.
Publishing an already-published digest is a no-op that keeps the first
artifact: content addressing guarantees both are identical, so a slow
worker racing a reclaimed lease is harmless.  A shard that fails
verification — including one from before the shared layout, whose
``meta.json`` records no ``checksums`` — is healed by the journal
(:meth:`~repro.fabric.journal.CampaignJournal.heal_artifact`).

Undetected examples are fault-object tuples from arbitrary (possibly
user-registered) scenarios, so they ride as a pickle blob inside the
``.npz`` — the counts that drive merging stay plain integer arrays.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.sim.campaign import CampaignResult
from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    ArtifactCorruptionError,
    ArtifactRoot,
    ArtifactWriter,
    npz_arrays,
    verify_file,
)

from repro.fabric.descriptors import ShardDescriptor

_RESULT = "result.npz"


class ShardStore(ArtifactRoot):
    """Content-addressed store of published :class:`CampaignResult` shards."""

    def publish(
        self,
        descriptor: ShardDescriptor,
        result: CampaignResult,
        *,
        worker: str = "",
        elapsed: float = 0.0,
    ) -> Path:
        """Atomically publish one shard's result; idempotent per digest."""
        if result.num_faults != descriptor.num_faults or (
            result.trials != descriptor.trials
        ):
            raise ValueError(
                f"result (k={result.num_faults}, trials={result.trials}) does "
                f"not match descriptor (k={descriptor.num_faults}, "
                f"trials={descriptor.trials})"
            )
        final = self.path_for(descriptor.digest)
        if self.has(descriptor.digest):
            return final
        examples = pickle.dumps(list(result.undetected_examples))
        with ArtifactWriter(final) as writer:
            writer.put_npz(
                _RESULT,
                counts=np.array(
                    [result.num_faults, result.trials, result.detected],
                    dtype=np.int64,
                ),
                undetected_trials=np.array(
                    result.undetected_trials, dtype=np.int64
                ),
                examples=np.frombuffer(examples, dtype=np.uint8),
            )
            return writer.commit({
                "version": STORE_FORMAT_VERSION,
                "digest": descriptor.digest,
                "num_faults": descriptor.num_faults,
                "shard": descriptor.shard,
                "trials": descriptor.trials,
                "detected": result.detected,
                "worker": worker,
                "elapsed": float(elapsed),
            })

    def load(self, digest: str) -> CampaignResult:
        """Materialize one published shard, bit-identical to the publish.

        Verifies the ``result.npz`` checksum recorded at publish against
        exactly the bytes parsed; a mismatch, a torn ``meta.json`` or an
        unparseable payload raises :exc:`ArtifactCorruptionError` — the
        journal runner converts that into quarantine-and-resimulate
        rather than ever merging a corrupt shard.
        """
        directory = self.path_for(digest)
        meta = self.meta(digest)
        payload = verify_file(directory, meta, _RESULT)
        data = npz_arrays(
            payload, directory / _RESULT,
            ("counts", "undetected_trials", "examples"),
        )
        num_faults, trials, detected = (int(v) for v in data["counts"])
        undetected_trials = [int(t) for t in data["undetected_trials"]]
        try:
            examples = pickle.loads(data["examples"].tobytes())
        except (pickle.UnpicklingError, EOFError) as exc:
            raise ArtifactCorruptionError(
                directory / _RESULT, f"unparseable payload: {exc}"
            )
        return CampaignResult(
            num_faults=num_faults,
            trials=trials,
            detected=detected,
            undetected_examples=examples,
            undetected_trials=undetected_trials,
        )
