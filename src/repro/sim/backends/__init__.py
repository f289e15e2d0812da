"""Kernel propagation backends: how packed scenario words propagate.

Every backend answers the same two questions — batched reach words and
scalar readings — against the same compiled CSR arc table, and every one
is pinned bit-identical to the ``engine="object"`` reference by the
equivalence suite.  What varies is the cost model:

======  ==================================================================
class   strategy
======  ==================================================================
tile    :class:`TileBackend` — elimination-scheduled multi-word tiles:
        two diameter-free passes over a precompiled shortcut schedule;
        what every kernel attaches on first use
word    :class:`WordBackend` — single-word packed reduceat sweeps; kept
        as the yardstick the tile floor is measured against
        (``kernel.set_backend(WordBackend(kernel))``)
======  ==================================================================
"""

from __future__ import annotations

from repro.sim.backends.base import KernelBackend
from repro.sim.backends.tile import EliminationPlan, TileBackend, pick_tile_words
from repro.sim.backends.word import WordBackend

__all__ = [
    "KernelBackend",
    "WordBackend",
    "TileBackend",
    "EliminationPlan",
    "pick_tile_words",
]
