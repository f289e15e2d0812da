"""Dictionary lineage: ancestor resolution and superseded-artifact GC.

Every dictionary artifact published since this module exists records a
``lineage`` block in its completeness marker::

    "lineage": {
        "layout":   "<digest of the array structure>",
        "universe": "<digest of the ordered fault universe>",
        "suite":    ["<per-vector content digest>", ...],   # suite order
        "parent":   null | "<digest of the ancestor artifact>",
        "delta":    null | {"new_vectors": N, "reused_sets": N}
    }

Because syndromes are per-vector readings, the stored table for suite
``S`` contains, verbatim, every ``S``-column of any superset suite over
the same (layout, ordered universe, cardinality).  Ancestor resolution
(:func:`resolve_ancestor`) exploits that: given a target key it scans
the store's catalog for compatible artifacts (same layout + universe
digest + cardinality, vector-digest set ⊂ target's) and picks the one
that avoids the most work, so
:class:`~repro.sim.diagnosis.FaultDictionary` can build the new artifact
from the ancestor's rows plus only the genuinely new columns.  A
lower-cardinality artifact is never an ancestor: extending it to the
next tier simulated as many distinct scenarios as a cold build and was
no faster in wall time, so such targets cold-build.

Incremental builds publish **complete, self-contained** artifacts under
the target digest — never load-time delta chains — so warm loads, heal
paths and bit-identity stay exactly as they were; the parent pointer is
provenance, not a read dependency.  That is also what gives garbage
collection its meaning: an artifact that is the recorded parent of
another stored artifact *of the same cardinality* is strictly superseded
(its child carries a superset of its columns and serves every future
delta at least as well), so :func:`plan_gc` lists exactly those, keeping
every lineage tip, every parent whose only children have another
cardinality (they cannot serve its lookups), and anything it cannot
reason about (pre-lineage artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.store.dictionaries import DictionaryStore


@dataclass(frozen=True)
class DictionaryInfo:
    """One stored dictionary artifact's identity, as cataloged from disk."""

    digest: str
    cardinality: int
    fault_sets: int
    universe_size: int
    layout: str
    universe: str
    #: Per-vector content digests, in the artifact's suite order.
    suite: tuple[str, ...]
    #: Digest of the ancestor artifact this one was delta-built from.
    parent: str | None
    bytes_on_disk: int = 0


def dictionary_info(
    digest: str, meta: Mapping[str, object], bytes_on_disk: int = 0
) -> DictionaryInfo | None:
    """Decode one ``meta.json`` into a :class:`DictionaryInfo`.

    Returns ``None`` for artifacts published before lineage existed (or
    with mangled lineage blocks) — they stay loadable by digest exactly
    as before, they just never participate in reuse or GC.
    """
    lineage = meta.get("lineage")
    if not isinstance(lineage, dict):
        return None
    try:
        parent = lineage.get("parent")
        return DictionaryInfo(
            digest=digest,
            cardinality=int(meta["cardinality"]),  # type: ignore[call-overload]
            fault_sets=int(meta.get("fault_sets", 0)),  # type: ignore[call-overload]
            universe_size=int(meta["universe_size"]),  # type: ignore[call-overload]
            layout=str(lineage["layout"]),
            universe=str(lineage["universe"]),
            suite=tuple(str(s) for s in lineage["suite"]),
            parent=str(parent) if parent is not None else None,
            bytes_on_disk=bytes_on_disk,
        )
    except (KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class DeltaPlan:
    """How to assemble a target dictionary from a stored ancestor."""

    ancestor: DictionaryInfo
    #: Target-suite positions of the vectors the ancestor lacks — the only
    #: columns an incremental build simulates.
    new_positions: tuple[int, ...]


def resolve_ancestor(
    store: "DictionaryStore",
    layout: str,
    universe: str,
    universe_size: int,
    suite: Sequence[str],
    cardinality: int,
    base_digest: str | None = None,
) -> DeltaPlan | None:
    """The most-reusable stored ancestor for a target dictionary key.

    A candidate must share the layout, the *ordered* universe (rows are
    universe indices) and the cardinality, and carry a strict subset of
    the target's vectors (digest-set inclusion — order free, since an
    incremental build re-sorts syndrome entries into target suite
    order).  Among candidates the widest suite wins (fewest new
    columns), then the largest row count, with the digest as the
    deterministic tie-break.

    ``base_digest`` pins resolution to one specific artifact — it is
    still validated against every compatibility rule, and ``None`` comes
    back when it fails any (the caller cold-builds rather than guessing).

    Suites with duplicate vector digests resolve to ``None``: carried
    syndrome entries are re-positioned by vector identity, which a
    duplicated vector makes ambiguous.
    """
    target_suite = list(suite)
    target_set = set(target_suite)
    if len(target_set) != len(target_suite):
        return None
    best: tuple[tuple[int, int, int, str], DictionaryInfo] | None = None
    for info in store.catalog():
        if base_digest is not None and info.digest != base_digest:
            continue
        if info.layout != layout or info.universe != universe:
            continue
        if info.universe_size != universe_size:
            continue
        if info.cardinality != cardinality:
            continue
        candidate_set = set(info.suite)
        if len(candidate_set) != len(info.suite):
            continue
        # A strict subset: the full set is the target itself (possible
        # when the caller raced a concurrent publisher, or a permuted
        # suite) — a warm load or a cold build serves it, not a delta.
        if not candidate_set < target_set:
            continue
        rank = (len(info.suite), info.fault_sets, info.digest)
        if best is None or rank > best[0]:
            best = (rank, info)
    if best is None:
        return None
    ancestor = best[1]
    ancestor_set = set(ancestor.suite)
    new_positions = tuple(
        i for i, d in enumerate(target_suite) if d not in ancestor_set
    )
    return DeltaPlan(ancestor=ancestor, new_positions=new_positions)


@dataclass(frozen=True)
class GcPlan:
    """What :meth:`DictionaryStore.gc` would (or did) act on."""

    #: Artifacts that are the recorded parent of another stored artifact
    #: of the same cardinality.
    superseded: tuple[DictionaryInfo, ...]
    #: Everything else — lineage tips, roots nothing descends from, and
    #: parents whose children all have another cardinality.
    kept: tuple[DictionaryInfo, ...]
    #: ``parent digest -> digests of its superseding stored children``.
    children: Mapping[str, tuple[str, ...]]

    @property
    def reclaimable_bytes(self) -> int:
        return sum(info.bytes_on_disk for info in self.superseded)


def plan_gc(store: "DictionaryStore") -> GcPlan:
    """Partition the store's cataloged dictionaries into superseded/kept.

    Direct-parent marking is transitively sufficient: every artifact in a
    same-cardinality chain except the tip is *somebody's* parent, so
    whole chains collapse to their tips without walking them.  A child
    of another cardinality (written by cardinality promotion, which
    earlier releases performed) supersedes nothing: neither a warm load
    nor :func:`resolve_ancestor` can serve the parent's cardinality from
    it.  Artifacts without lineage metadata never appear in the catalog
    and are therefore never touched.
    """
    infos = store.catalog()
    cardinality = {info.digest: info.cardinality for info in infos}
    children: dict[str, list[str]] = {}
    for info in infos:
        parent = info.parent
        if parent is not None and cardinality.get(parent) == info.cardinality:
            children.setdefault(parent, []).append(info.digest)
    superseded = tuple(i for i in infos if i.digest in children)
    kept = tuple(i for i in infos if i.digest not in children)
    return GcPlan(
        superseded=superseded,
        kept=kept,
        children={p: tuple(sorted(c)) for p, c in children.items()},
    )
