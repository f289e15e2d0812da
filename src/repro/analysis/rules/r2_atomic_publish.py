"""R2 — writes under store/journal roots go through atomic publish.

The store's healing guarantees (PR 8) assume readers only ever see
either a complete artifact or no artifact: writers stage into a temp
name, fsync, then ``os.replace`` into place, with the ``meta.json``
completeness marker landing last.  A raw ``open(path, "w")`` in the
store or fabric layers can expose a torn file to a concurrent verifying
reader — exactly the race the chaos suite exists to rule out.

The rule is deliberately scope-granular rather than statement-granular:
a write is exempt when its target expression mentions ``tmp`` (staging
into a temp name *is* the protocol's first half) or when the enclosing
function/class also performs the ``os.replace``/``os.rename``/``os.link``
that completes the publish.  That passes the shared two-phase writer
(:class:`repro.store.integrity.ArtifactWriter` stages in ``put`` and
renames in ``commit``) without false positives, while still catching
the one-liner that writes straight to a final name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import STORE_LAYERS, FileContext, Finding, Rule, dotted_tail

_WRITE_METHODS = {"write_text", "write_bytes"}
_ATOMIC_COMPLETIONS = {
    "os.replace", "replace", "os.rename", "rename", "os.link", "link",
}


def _write_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open``/``Path.open`` call, if literal."""
    mode: ast.expr | None = None
    if len(node.args) >= 2 and dotted_tail(node.func) == "open" and not isinstance(
        node.func, ast.Attribute
    ):
        mode = node.args[1]
    elif node.args and isinstance(node.func, ast.Attribute):
        mode = node.args[0]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


class AtomicPublishRule(Rule):
    id = "R2"
    name = "atomic-publish"
    severity = "error"
    rationale = (
        "readers under store/journal roots must only ever see complete "
        "artifacts; writes must stage to tmp and os.replace into place"
    )
    scope = STORE_LAYERS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_tail(node.func)
            target: ast.expr | None = None
            verb = ""
            if tail in _WRITE_METHODS and isinstance(node.func, ast.Attribute):
                target = node.func.value
                verb = f".{tail}()"
            elif tail == "open":
                mode = _write_mode(node)
                if mode is None or not any(c in mode for c in "wax+"):
                    continue
                if isinstance(node.func, ast.Attribute):
                    target = node.func.value
                elif node.args:
                    target = node.args[0]
                verb = f'open(mode="{mode}")'
            else:
                continue
            if target is not None and self._is_temp(ctx, target):
                continue
            if self._completes_atomically(ctx, node):
                continue
            yield ctx.finding(
                self,
                node,
                f"raw {verb} under a store/journal layer — stage into a "
                f"tmp name and os.replace into place (see "
                f"repro.store.integrity)",
            )

    @staticmethod
    def _is_temp(ctx: FileContext, target: ast.expr) -> bool:
        segment = ast.get_source_segment(ctx.source, target) or ""
        return "tmp" in segment.lower() or "temp" in segment.lower()

    @staticmethod
    def _completes_atomically(ctx: FileContext, node: ast.Call) -> bool:
        return bool(ctx.enclosing_calls(node) & _ATOMIC_COMPLETIONS)
