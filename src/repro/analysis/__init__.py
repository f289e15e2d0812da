"""Static analysis for the repo's own invariants.

The guarantees this reproduction makes — bit-identical shard merges for
any worker count, corruption that heals instead of corrupting results,
exactly-one-kernel-compile sessions — rest on coding conventions.  This
package checks them mechanically:

====  ========================  =====================================
rule  name                      invariant protected
====  ========================  =====================================
R1    determinism               results are a pure function of (inputs, seed)
R2    atomic-publish            readers never see torn artifacts
R3    session-discipline        one kernel compile, via ExecutionContext
R5    broad-except              corruption errors reach the healer
R6    lease-discipline          exactly one claim winner per shard
R7    fork-safety               no shared mutable module state in workers
R8    dtype-hygiene             no silent uint64 promotions on the hot path
====  ========================  =====================================

R4 (no internal use of deprecated call spellings) is retired along with
the spellings it policed; its id is not reused, because suppression
comments cite rules by id.

Run it with ``python -m repro.analysis`` (or ``python -m repro lint``);
suppress a deliberate finding inline with ``# repro: ignore[R1] -- why``
and grandfather pre-existing ones in ``analysis-baseline.json``.
"""

from .baseline import BaselineEntry, load_baseline, write_baseline
from .core import Finding, Rule, analyze_files, analyze_source, fingerprint
from .rules import all_rules, rules_by_id

__all__ = [
    "BaselineEntry",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_files",
    "analyze_source",
    "fingerprint",
    "load_baseline",
    "rules_by_id",
    "write_baseline",
]
