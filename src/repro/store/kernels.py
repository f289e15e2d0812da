"""On-disk persistence for compiled reachability kernels.

One artifact per array, content-addressed by :func:`kernel_digest`, in
the store's shared layout (:mod:`repro.store.integrity`)::

    <root>/<digest>/
        arcs.npz    # the destination-sorted CSR arc table
        meta.json   # format version + checksums; written LAST

Loading installs the arrays of :meth:`ReachabilityKernel.to_arrays`
verbatim — no graph walk, no sort — so a warm kernel is bit-identical to
a cold compile, and the sharded campaign runner can ship a *path* to
worker processes instead of a pickled kernel per shard payload.

Artifacts are **backend-agnostic**: only the arc table is persisted,
never a propagation backend or its compiled schedule, so a loaded kernel
attaches its :mod:`repro.sim.backends` object on first use and replays
bit-identical readings.

Publishing, verification and quarantine are the shared primitive's; a
corrupt artifact raises
:exc:`~repro.store.integrity.ArtifactCorruptionError` and
:meth:`KernelStore.get_or_compile` quarantines and recompiles it.  Flat
``<digest>.npz`` files from the earlier layout are never read: the
kernel recompiles once into ``<digest>/`` and the old files may be
deleted.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

from repro.fpva.array import FPVA
from repro.sim.kernel import ReachabilityKernel
from repro.store.digest import STORE_FORMAT_VERSION, kernel_digest
from repro.store.integrity import (
    ArtifactCorruptionError,
    ArtifactWriter,
    npz_arrays,
    quarantine,
    read_meta,
    verify_file,
)

#: The payload file holding one kernel's arc table.
ARCS = "arcs.npz"

_ARC_KEYS = ("arc_src", "arc_dst", "arc_valve", "arc_edge")


class KernelStore:
    """Content-addressed store of compiled kernel arc tables."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, fpva: FPVA) -> Path:
        return self.root / kernel_digest(fpva)

    def has(self, fpva: FPVA) -> bool:
        """Only *complete* artifacts count (``meta.json`` is written last)."""
        return (self.path_for(fpva) / "meta.json").exists()

    def save(self, kernel: ReachabilityKernel) -> Path:
        """Persist a compiled kernel; returns the artifact directory."""
        final = self.path_for(kernel.fpva)
        with ArtifactWriter(final) as writer:
            writer.put_npz(ARCS, **kernel.to_arrays())
            return writer.commit(
                {"version": STORE_FORMAT_VERSION, "digest": final.name}
            )

    def load(self, fpva: FPVA) -> ReachabilityKernel | None:
        """The stored kernel for ``fpva``, or ``None`` on a cache miss.

        Raises :exc:`ArtifactCorruptionError` when the artifact exists
        but fails verification — callers quarantine and recompile (see
        :meth:`get_or_compile` / :meth:`heal`).
        """
        directory = self.path_for(fpva)
        try:
            meta = read_meta(directory)
        except FileNotFoundError:
            return None
        payload = verify_file(directory, meta, ARCS)
        arrays = npz_arrays(payload, directory / ARCS, _ARC_KEYS)
        return ReachabilityKernel.from_arrays(fpva, arrays)

    def heal(self, fpva: FPVA, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt kernel artifact directory."""
        return quarantine(self.root, self.path_for(fpva), error.reason)

    def get_or_compile(
        self, fpva: FPVA, tally: Counter[str] | None = None
    ) -> ReachabilityKernel:
        """Warm-load the kernel, compiling and persisting on first use.

        A corrupt stored artifact is quarantined and recompiled from the
        array — self-healing, never served.  ``tally``, when given,
        counts what happened: ``"load"``, ``"heal"`` and ``"compile"``.
        """
        tally = Counter() if tally is None else tally
        try:
            kernel = self.load(fpva)
        except ArtifactCorruptionError as error:
            self.heal(fpva, error)
            tally["heal"] += 1
            kernel = None
        if kernel is not None:
            tally["load"] += 1
            return kernel
        kernel = ReachabilityKernel(fpva)
        tally["compile"] += 1
        self.save(kernel)
        return kernel
