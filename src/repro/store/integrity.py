"""Artifact integrity: one publish/verify/quarantine primitive.

Every artifact the stores persist — a compiled kernel, a dictionary, a
campaign shard — has the same shape on disk::

    <root>/<digest>/
        <payload> ...   # the store's own encoding (``.npz``, JSON)
        meta.json       # store fields + ``checksums``; written LAST

and goes through the same cycle, implemented once here:

* **Publish.**  :class:`ArtifactWriter` stages payloads into
  ``<digest>.tmp-<pid>/``, fsyncing each and recording its BLAKE2b
  checksum; :meth:`~ArtifactWriter.commit` writes ``meta.json`` last
  (it doubles as the completeness marker), fsyncs the staging
  directory, renames it into place with ``os.replace`` and fsyncs the
  parent — so neither a crash nor a power loss leaves a half-written or
  renamed-but-empty artifact addressable.

* **Verify.**  :func:`verify_file` reads a payload and checks it against
  the checksum ``meta.json`` recorded for it, at read time, on exactly
  the bytes about to be parsed; :func:`npz_arrays` parses ``.npz``
  payloads.  Any mismatch, missing checksum or unparseable payload
  raises the typed :exc:`ArtifactCorruptionError` instead of whatever
  the corrupted parser would have thrown.

* **Quarantine.**  :func:`quarantine` moves a corrupt artifact into a
  ``quarantine/`` sibling directory (never deletes — the evidence is
  for the operator) and drops a ``<name>.reason.json`` diagnostic next
  to it.  After the move the artifact is simply *absent* from the
  store, so the ordinary cold-build path regenerates it: kernels
  recompile, dictionaries re-simulate, shards re-enter their journal as
  pending.  Corruption therefore heals through the same code paths a
  cache miss takes — and so do artifacts from before this layout that
  carry no ``checksums`` map.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import time
import zipfile
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.store.digest import STORE_FORMAT_VERSION

#: Filename of the per-artifact diagnostic record written on quarantine.
REASON_SUFFIX = ".reason.json"

#: Hex-digest size used for artifact content checksums (BLAKE2b).
CHECKSUM_DIGEST_SIZE = 16

#: Marks a staging name (``<final>.tmp-<pid>``); never an addressable artifact.
STAGING_MARK = ".tmp-"


class ArtifactCorruptionError(RuntimeError):
    """A stored artifact failed integrity verification.

    Carries enough context for the caller to quarantine and rebuild:
    the artifact ``path`` that failed and a human-readable ``reason``.
    Callers are expected to convert this into quarantine-and-rebuild,
    never to merge or serve the corrupt payload.
    """

    def __init__(self, path: str | os.PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt artifact {self.path}: {reason}")


def data_checksum(payload: bytes) -> str:
    """BLAKE2b hex checksum of an in-memory payload."""
    return hashlib.blake2b(
        payload, digest_size=CHECKSUM_DIGEST_SIZE
    ).hexdigest()


class ArtifactWriter:
    """Stage one artifact directory and publish it atomically.

    Payloads go into ``<final>.tmp-<pid>/`` (see :meth:`put`);
    :meth:`commit` writes ``meta.json`` last and renames the directory
    into place.  :meth:`abort` (idempotent, a no-op after commit)
    discards the staging directory, and leaving a ``with`` block calls
    it, so a failed build publishes nothing.
    """

    def __init__(self, final: str | os.PathLike) -> None:
        self.final = Path(final)
        self._tmp = self.final.with_name(
            f"{self.final.name}{STAGING_MARK}{os.getpid()}"
        )
        if self._tmp.exists():
            shutil.rmtree(self._tmp)
        self._tmp.mkdir(parents=True)
        self._checksums: dict[str, str] = {}
        self.committed = False

    def __enter__(self) -> ArtifactWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.abort()

    def put(self, name: str, payload: bytes) -> None:
        """Write one payload file durably, recording its checksum."""
        with open(self._tmp / name, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        self._checksums[name] = data_checksum(payload)

    def put_npz(self, name: str, **arrays: Any) -> None:
        """:meth:`put` the ``np.savez`` encoding of ``arrays``."""
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        self.put(name, buffer.getvalue())

    def commit(self, meta: dict) -> Path:
        """Write ``meta.json`` (plus ``checksums``) last, then publish.

        Everything is on stable storage before the rename makes it
        addressable, and the parent directory is flushed after it.  A
        concurrent publish that won the rename race keeps its artifact —
        identical by content addressing — and ours is discarded.
        """
        meta = {**meta, "checksums": dict(sorted(self._checksums.items()))}
        with open(self._tmp / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(self._tmp)
        try:
            os.replace(self._tmp, self.final)
        except OSError:
            if not (self.final / "meta.json").exists():
                raise
            shutil.rmtree(self._tmp)
        fsync_dir(self.final.parent)
        self.committed = True
        return self.final

    def abort(self) -> None:
        """Discard the staging directory (no-op after a successful commit)."""
        if not self.committed and self._tmp.exists():
            shutil.rmtree(self._tmp)


def write_json_atomic(path: Path, payload: dict) -> None:
    """Replace one small JSON record atomically (temp + ``os.replace``).

    For mutable bookkeeping records (journal manifest, supervision
    ledger) rather than content-addressed artifacts: readers see the old
    or the new record, never a torn one; no fsync.
    """
    tmp = path.with_name(f".{path.name}{STAGING_MARK}{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


#: Per-process memo of payloads that already verified clean: path ->
#: (expected checksum, size, mtime_ns, inode) captured from the very file
#: descriptor the clean bytes were read through.  Published artifacts are
#: immutable (atomic replace swaps the whole inode), so a later read of
#: the same path whose fstat signature still matches is the same bytes —
#: warm-session consumers that touch one chunk many times pay BLAKE2b
#: once, not per load.  Verification stays lazy and a *changed* file
#: (heal, republish, corruption injected via a fresh write) changes its
#: signature and re-verifies; the one hole — an in-place bit flip that
#: leaves size+mtime+inode intact within a single process's lifetime —
#: is caught by the next process, exactly the window the pre-cache code
#: had between its own read and parse.
# repro: ignore[R7] -- deliberate per-process cache of verified payload digests, keyed by path + fstat identity; bounded FIFO, never shared across processes
_VERIFIED: dict[str, tuple[str, int, int, int]] = {}

#: FIFO bound on the verified-payload memo (a 20x20 card-2 dictionary is
#: a few hundred chunks; 4096 entries covers many warm sessions).
_VERIFIED_LIMIT = 4096


def _reset_verified_cache() -> None:
    """Drop the per-process verified-payload memo (test hook)."""
    _VERIFIED.clear()


def verify_file(directory: str | os.PathLike, meta: dict, name: str) -> bytes:
    """Read payload ``name`` of an artifact, verifying it against ``meta``.

    Returns the verified bytes (so callers parse exactly what was
    hashed — no read-verify-reread race).  The expected checksum is
    ``meta["checksums"][name]``; a payload without one (an artifact from
    before the shared layout) is corruption too, so it heals by
    rebuilding instead of loading unverified.  Repeat reads of a payload
    this process already verified skip the hash when the file's fstat
    signature is unchanged (see ``_VERIFIED``); a mismatch always raises
    and never caches.
    """
    path = Path(directory) / name
    expected = (meta.get("checksums") or {}).get(name)
    if expected is None:
        raise ArtifactCorruptionError(path, "no recorded checksum")
    try:
        with open(path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            payload = fh.read()
    except FileNotFoundError:
        raise ArtifactCorruptionError(path, "payload file is missing") from None
    key = str(path)
    signature = (expected, stat.st_size, stat.st_mtime_ns, stat.st_ino)
    if _VERIFIED.get(key) == signature and len(payload) == stat.st_size:
        return payload
    actual = data_checksum(payload)
    if actual != expected:
        raise ArtifactCorruptionError(
            path, f"checksum mismatch (expected {expected}, got {actual})"
        )
    while len(_VERIFIED) >= _VERIFIED_LIMIT:
        _VERIFIED.pop(next(iter(_VERIFIED)))
    _VERIFIED[key] = signature
    return payload


def npz_arrays(
    payload: bytes, path: str | os.PathLike, keys: Iterable[str]
) -> dict[str, np.ndarray]:
    """Parse the ``keys`` arrays of an ``.npz`` payload read from ``path``.

    A payload that does not parse (or lacks a key) raises
    :exc:`ArtifactCorruptionError` rather than a :mod:`numpy` error.
    """
    try:
        with np.load(io.BytesIO(payload)) as data:
            return {key: data[key] for key in keys}
    except (zipfile.BadZipFile, KeyError, OSError) as exc:
        raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory entry (new/renamed children) to stable storage.

    Best-effort on filesystems that refuse ``fsync`` on directories —
    the atomic-rename protocol is still crash-safe there, just not
    power-loss-proof.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


class ArtifactRoot:
    """A directory of content-addressed artifacts, one ``<digest>/`` each."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest

    def has(self, digest: str) -> bool:
        """Only *complete* artifacts count (``meta.json`` is written last)."""
        return (self.path_for(digest) / "meta.json").exists()

    def meta(self, digest: str) -> dict:
        """The completeness marker (see :func:`read_meta`)."""
        return read_meta(self.path_for(digest))


def read_meta(directory: str | os.PathLike) -> dict:
    """An artifact's completeness marker, ``<directory>/meta.json``.

    ``FileNotFoundError`` means the artifact is not published.  A marker
    that does not parse is exactly the torn write this layer exists to
    catch, and one of another format version cannot sit at this address
    (the version is part of every digest): both raise
    :exc:`ArtifactCorruptionError`, so every caller shares one
    quarantine-and-rebuild path.
    """
    path = Path(directory) / "meta.json"
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ArtifactCorruptionError(path, f"unreadable metadata: {exc}")
    if not isinstance(meta, dict) or meta.get("version") != STORE_FORMAT_VERSION:
        raise ArtifactCorruptionError(path, "unsupported format version")
    return meta


def quarantine(
    root: str | os.PathLike, artifact: str | os.PathLike, reason: str
) -> Path | None:
    """Move a corrupt artifact (file or directory) into ``root/quarantine``.

    Returns the quarantined path, or ``None`` when the artifact vanished
    meanwhile (a concurrent healer won — their quarantine carries the
    evidence).  Repeated quarantines of the same name get ``-1``, ``-2``
    … suffixes, so evidence from independent corruption events never
    overwrites.  A ``<name>.reason.json`` diagnostic records why, when,
    and by whom.
    """
    artifact = Path(artifact)
    pen = Path(root) / "quarantine"
    pen.mkdir(parents=True, exist_ok=True)
    target = pen / artifact.name
    bump = 0
    while target.exists():
        bump += 1
        target = pen / f"{artifact.name}-{bump}"
    try:
        os.replace(artifact, target)
    except FileNotFoundError:
        return None
    except OSError:
        # Cross-device or directory-over-directory edge: fall back to a
        # copy-then-remove move (still never deletes without preserving).
        shutil.move(str(artifact), str(target))
    record = {
        "artifact": artifact.name,
        "quarantined_from": str(artifact.parent),
        "reason": reason,
        "pid": os.getpid(),
        "quarantined_at": time.time(),
    }
    with open(f"{target}{REASON_SUFFIX}", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return target


def quarantined_artifacts(root: str | os.PathLike) -> list[dict]:
    """The diagnostic records under ``root/quarantine`` (operator view)."""
    pen = Path(root) / "quarantine"
    if not pen.is_dir():
        return []
    records = []
    for reason_file in sorted(pen.glob(f"*{REASON_SUFFIX}")):
        try:
            with open(reason_file) as fh:
                records.append(json.load(fh))
        except (json.JSONDecodeError, OSError):  # pragma: no cover
            records.append({"artifact": reason_file.name, "reason": "unreadable"})
    return records
