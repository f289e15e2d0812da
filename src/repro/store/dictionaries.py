"""Chunked on-disk persistence for fault-dictionary syndrome tables.

A dictionary artifact is a content-addressed directory::

    <root>/<digest>/
        chunk-00000.npz   # sets: (N, cardinality) int32 universe indices
        chunk-00001.npz   #       (-1 padded); syndromes: (N,) int32 ids
        ...
        syndromes.json    # interned syndrome table, in first-seen order
        meta.json         # counts, version, checksums; written LAST

Fault sets are stored as indices into the build's ordered fault universe
(the digest covers the universe, so indices are unambiguous), and each
detected set carries the id of its syndrome — full syndromes are stored
once, not per fault set, which keeps 10x10-and-up double-fault tables to
a few int32s per entry.  The syndrome table itself is interned the same
way: vector names once in a header, each failing vector's meter readout
as a bitmask over the (sorted) sink names, so a syndrome serializes as
``[[vector_id, readout_mask], ...]`` — warm loads spend their time
parsing integers, not re-reading thousands of repeated port-name strings.

The writer appends chunks as a **streaming** build produces them, so the
producer never holds more than one chunk of encoded rows.  Publishing
and verification are the shared primitive's
(:class:`~repro.store.integrity.ArtifactWriter`,
:func:`~repro.store.integrity.verify_file`): a crashed build leaves
nothing addressable, and a payload that fails its recorded checksum
raises :exc:`~repro.store.integrity.ArtifactCorruptionError`, which
callers convert into quarantine-and-rebuild
(:class:`~repro.sim.diagnosis.FaultDictionary` re-simulates the table).
"""

from __future__ import annotations

import json
import shutil
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    STAGING_MARK,
    ArtifactCorruptionError,
    ArtifactRoot,
    ArtifactWriter,
    fsync_dir,
    npz_arrays,
    quarantine,
    read_meta,
    verify_file,
)
from repro.store.lineage import DictionaryInfo, GcPlan, dictionary_info, plan_gc

#: Encoded rows buffered before a chunk file is flushed to disk.
CHUNK_ROWS = 16384


def encode_syndromes(syndromes: Iterable) -> dict:
    """Syndrome tuples → the interned JSON payload (see module docstring)."""
    vector_ids: dict[str, int] = {}
    sinks: tuple[str, ...] | None = None
    encoded = []
    for syndrome in syndromes:
        entries = []
        for name, items in syndrome:
            vi = vector_ids.setdefault(name, len(vector_ids))
            names = tuple(sink for sink, _ in items)
            if sinks is None:
                sinks = names
            elif names != sinks:
                raise ValueError(
                    f"inconsistent sink signature in syndromes: "
                    f"{names} vs {sinks}"
                )
            mask = 0
            for j, (_, val) in enumerate(items):
                if val:
                    mask |= 1 << j
            entries.append([vi, mask])
        encoded.append(entries)
    return {
        "vectors": list(vector_ids),
        "sinks": list(sinks or ()),
        "syndromes": encoded,
    }


def decode_syndromes(payload: dict) -> list[tuple]:
    """Inverse of :func:`encode_syndromes` — bit-identical tuples back.

    Repeated ``(vector, readout)`` pairs and readout item tuples are
    interned while decoding, so cost scales with *distinct* failures, not
    with table size.
    """
    vectors = payload["vectors"]
    sinks = payload["sinks"]
    items_cache: dict[int, tuple] = {}
    pair_cache: dict[tuple[int, int], tuple] = {}
    syndromes = []
    for entries in payload["syndromes"]:
        decoded = []
        for vi, mask in entries:
            key = (vi, mask)
            pair = pair_cache.get(key)
            if pair is None:
                items = items_cache.get(mask)
                if items is None:
                    items = items_cache[mask] = tuple(
                        (sink, bool((mask >> j) & 1))
                        for j, sink in enumerate(sinks)
                    )
                pair = pair_cache[key] = (vectors[vi], items)
            decoded.append(pair)
        syndromes.append(tuple(decoded))
    return syndromes


class DictionaryWriter:
    """Streaming appender for one dictionary artifact.

    Stages through an :class:`~repro.store.integrity.ArtifactWriter`,
    published on :meth:`commit`; :meth:`abort` (idempotent, safe after
    commit) discards the staging directory, so ``try/finally:
    writer.abort()`` around a build yields all-or-nothing persistence.
    """

    def __init__(self, directory: Path, cardinality: int, meta: dict) -> None:
        self._artifact = ArtifactWriter(directory)
        self._cardinality = cardinality
        self._meta = dict(meta)
        self._syndrome_ids: dict = {}
        self._rows: list[tuple[int, ...]] = []
        self._row_syndromes: list[int] = []
        self._chunks = 0
        self._total = 0

    def annotate(self, **fields: Any) -> None:
        """Merge extra metadata fields before :meth:`commit`.

        Incremental builds use this to record their lineage (parent
        digest + the delta that produced the artifact) once the delta's
        actual shape — reused rows, simulated columns — is known.
        """
        if self._artifact.committed:
            raise RuntimeError("cannot annotate a committed artifact")
        self._meta.update(fields)

    def add(self, indices: Sequence[int], syndrome: Any) -> None:
        """Record one detected fault set (universe indices) + its syndrome."""
        ids = self._syndrome_ids
        sid = ids.get(syndrome)
        if sid is None:
            sid = ids[syndrome] = len(ids)
        pad = self._cardinality - len(indices)
        self._rows.append(tuple(indices) + (-1,) * pad)
        self._row_syndromes.append(sid)
        if len(self._rows) >= CHUNK_ROWS:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._rows:
            return
        self._artifact.put_npz(
            f"chunk-{self._chunks:05d}.npz",
            sets=np.array(self._rows, dtype=np.int32),
            syndromes=np.array(self._row_syndromes, dtype=np.int32),
        )
        self._total += len(self._rows)
        self._rows = []
        self._row_syndromes = []
        self._chunks += 1

    def commit(self) -> Path:
        """Flush, write the syndrome table and metadata, publish atomically."""
        self._flush_chunk()
        # Insertion order == id order, so the dict iterates id-sorted.
        self._artifact.put(
            "syndromes.json",
            json.dumps(
                encode_syndromes(self._syndrome_ids), separators=(",", ":")
            ).encode(),
        )
        return self._artifact.commit({
            **self._meta,
            "version": STORE_FORMAT_VERSION,
            "cardinality": self._cardinality,
            "chunks": self._chunks,
            "fault_sets": self._total,
            "distinct_syndromes": len(self._syndrome_ids),
        })

    def abort(self) -> None:
        """Discard the staging directory (no-op after a successful commit)."""
        self._artifact.abort()


class DictionaryStore(ArtifactRoot):
    """Content-addressed store of chunked syndrome tables."""

    def heal(self, digest: str, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt dictionary artifact directory.

        After the move :meth:`has` is false again, so the ordinary cold
        build re-simulates the table — chunks heal by rebuilding.
        """
        return quarantine(self.root, self.path_for(digest), error.reason)

    def writer(
        self, digest: str, cardinality: int, meta: dict | None = None
    ) -> DictionaryWriter:
        return DictionaryWriter(
            self.path_for(digest), cardinality, meta or {}
        )

    def _syndromes(self, directory: Path, meta: dict) -> list[tuple]:
        """The verified, decoded syndrome table of one artifact."""
        payload = verify_file(directory, meta, "syndromes.json")
        try:
            return decode_syndromes(json.loads(payload))
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
            raise ArtifactCorruptionError(
                directory / "syndromes.json", f"unparseable payload: {exc}"
            )

    def _chunks(
        self, directory: Path, meta: dict
    ) -> Iterator[tuple[list, list]]:
        """``(rows, syndrome ids)`` per chunk in append order, each verified
        lazily — corruption surfaces mid-iteration."""
        for chunk in range(meta["chunks"]):
            name = f"chunk-{chunk:05d}.npz"
            payload = verify_file(directory, meta, name)
            data = npz_arrays(payload, directory / name, ("sets", "syndromes"))
            yield data["sets"].tolist(), data["syndromes"].tolist()

    def load(self, digest: str, universe: Sequence) -> dict:
        """Materialize the syndrome table against the build's universe.

        Iterates chunks in append order, so syndromes first-seen order and
        per-syndrome candidate order — and therefore every downstream
        ``DiagnosisReport`` — are bit-identical to the cold build's.
        """
        directory = self.path_for(digest)
        meta = self.meta(digest)
        if meta["universe_size"] != len(universe):
            raise ValueError(
                f"dictionary artifact {directory} was built against a "
                f"{meta['universe_size']}-fault universe, got {len(universe)}"
            )
        syndromes = self._syndromes(directory, meta)
        # Table keys are created in syndrome-id (= first-seen) order, and
        # each row appends through a pre-resolved bucket reference — the
        # nested syndrome tuples are hashed once per *syndrome*, never per
        # fault set, which is what keeps warm loads 20x+ under cold builds.
        table: dict = defaultdict(list)
        buckets = [table[syndrome] for syndrome in syndromes]
        faults = list(universe)
        for rows, sids in self._chunks(directory, meta):
            if meta["cardinality"] == 1:
                for row, sid in zip(rows, sids):
                    buckets[sid].append((faults[row[0]],))
            elif meta["cardinality"] == 2:
                for (i, j), sid in zip(rows, sids):
                    buckets[sid].append(
                        (faults[i], faults[j]) if j >= 0 else (faults[i],)
                    )
            else:
                # Arbitrary cardinality: strip the -1 padding (trailing by
                # construction, but filtering is order-preserving either way).
                for row, sid in zip(rows, sids):
                    buckets[sid].append(
                        tuple(faults[i] for i in row if i >= 0)
                    )
        return table

    # -- lineage-aware access ---------------------------------------------
    def load_syndromes(self, digest: str) -> list[tuple]:
        """Just the interned syndrome table of one artifact, verified.

        The incremental build reads an *ancestor's* syndromes (to remap
        their entries into the target suite's positions) without
        materializing its full table.
        """
        return self._syndromes(self.path_for(digest), self.meta(digest))

    def iter_rows(self, digest: str) -> Iterator[tuple[tuple[int, ...], int]]:
        """Stream ``(universe-index tuple, syndrome id)`` rows in append order.

        Padding (-1) is stripped, so rows compare directly against the
        canonical fault-set enumeration — the merge-walk the incremental
        build runs against the ancestor artifact.  Verification is lazy
        per chunk; corruption surfaces as :exc:`ArtifactCorruptionError`
        mid-iteration and the caller heals + falls back to a cold build.
        """
        directory = self.path_for(digest)
        for rows, sids in self._chunks(directory, self.meta(digest)):
            for row, sid in zip(rows, sids):
                end = len(row)
                while end and row[end - 1] < 0:
                    end -= 1
                yield tuple(row[:end]), sid

    def catalog(self) -> list[DictionaryInfo]:
        """Every complete, lineage-bearing artifact in the store.

        Scan-based (the ``meta.json`` completeness markers *are* the
        index — there is no separate catalog file to corrupt or race).
        Unreadable or pre-lineage metadata skips the entry rather than
        failing the scan: reuse and GC simply do not see it.
        """
        if not self.root.is_dir():
            return []
        infos = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or entry.name == "quarantine":
                continue
            if STAGING_MARK in entry.name:
                continue
            try:
                meta = read_meta(entry)
            except (FileNotFoundError, ArtifactCorruptionError):
                continue
            size = sum(
                f.stat().st_size for f in entry.iterdir() if f.is_file()
            )
            info = dictionary_info(entry.name, meta, bytes_on_disk=size)
            if info is not None:
                infos.append(info)
        return infos

    def gc(
        self, apply: bool = False, quarantine_evidence: bool = False
    ) -> dict:
        """List (and optionally remove) superseded ancestor dictionaries.

        An artifact is superseded when it is the recorded lineage parent
        of another *stored* artifact: the child is complete and carries a
        superset of its information, so nothing — warm loads included —
        is lost by dropping the parent (only a ``base_digest`` pinned to
        it would fall back to a cold build).  Lineage tips and artifacts
        without lineage metadata are never touched.

        ``apply=False`` (the default) is a dry run.  With ``apply=True``
        superseded artifacts are deleted — unless ``quarantine_evidence``
        moves them into the store's ``quarantine/`` directory instead
        (the never-delete-evidence option, same protocol corruption
        uses), where loads no longer address them but the operator keeps
        the bytes.
        """
        plan: GcPlan = plan_gc(self)
        removed: list[str] = []
        for info in plan.superseded:
            if not apply:
                continue
            if not self.has(info.digest):
                continue  # a concurrent gc (or heal) got here first
            path = self.path_for(info.digest)
            if quarantine_evidence:
                reason = "superseded by lineage descendants: " + ", ".join(
                    plan.children.get(info.digest, ())
                )
                if quarantine(self.root, path, reason) is not None:
                    removed.append(info.digest)
            else:
                shutil.rmtree(path)
                removed.append(info.digest)
        if removed:
            fsync_dir(self.root)
        action = "dry-run"
        if apply:
            action = "quarantined" if quarantine_evidence else "removed"
        return {
            "action": action,
            "superseded": [
                {
                    "digest": i.digest,
                    "cardinality": i.cardinality,
                    "fault_sets": i.fault_sets,
                    "vectors": len(i.suite),
                    "bytes": i.bytes_on_disk,
                    "superseded_by": list(plan.children.get(i.digest, ())),
                }
                for i in plan.superseded
            ],
            "kept": [i.digest for i in plan.kept],
            "reclaimable_bytes": plan.reclaimable_bytes,
            "removed": removed,
        }
