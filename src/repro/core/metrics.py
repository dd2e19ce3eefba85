"""Instrumentation for GTM2 schemes.

The paper analyzes each scheme's *complexity* as the average number of
steps to schedule one transaction, where steps are counted in ``cond``,
in ``act``, and in re-examining the WAIT set.  :class:`SchemeMetrics`
counts exactly those quantities; every scheme calls :meth:`step` from its
inner loops (one call per constant-time unit of work, e.g. per edge
visited during cycle detection, per queue element inspected).

It also records the *degree of concurrency* measurements of §4: how many
operations were inserted into WAIT, and how long they waited (in
processed-operation ticks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict


@dataclass
class SchemeMetrics:
    """Step and wait accounting for one scheme run."""

    #: registry namespace of the fields below (see
    #: :func:`repro.observability.export.publish`)
    metric_prefix: ClassVar[str] = "gtm"

    #: constant-time work units executed by the scheme (cond + act + rescan)
    steps: int = 0
    #: operations processed (act executed), by kind
    processed: Dict[str, int] = field(default_factory=dict)
    #: operations inserted into WAIT, by kind
    waited: Dict[str, int] = field(
        default_factory=dict, metadata={"metric": "gtm.waits"}
    )
    #: total processed-operation ticks spent by operations in WAIT
    wait_ticks: int = 0
    #: transactions fully scheduled (fin processed)
    transactions_finished: int = field(
        default=0, metadata={"metric": "gtm.transactions"}
    )
    # -- scheduling-cost attribution (fast paths; not part of the
    # -- paper's step measure, which stays the analytical model cost) --
    #: structural graph mutations (node/edge/dependency inserts+removals)
    graph_ops: int = 0
    #: DFS / scan work units the incremental paths did *not* re-execute
    #: (estimated against the legacy restart-from-scratch cost)
    dfs_steps_avoided: int = 0
    #: waiting operations the targeted post-purge drain did not re-examine
    wake_retries_skipped: int = 0
    #: dependency edges added by Eliminate_Cycles (scheme 2's Δ; the
    #: paper's non-minimality measure of Theorem 7 — zero elsewhere)
    delta_edges: int = field(
        default=0, metadata={"metric": "{scheme}.delta_edges"}
    )
    #: batches sealed by the batch planner (scheme 4 — zero elsewhere)
    batches_planned: int = field(
        default=0, metadata={"metric": "{scheme}.batches_planned"}
    )
    #: per-site ordering constraints materialised by sealed plans
    plan_edges: int = field(
        default=0, metadata={"metric": "{scheme}.plan_edges"}
    )

    def step(self, count: int = 1) -> None:
        self.steps += count

    def note_processed(self, kind: str) -> None:
        self.processed[kind] = self.processed.get(kind, 0) + 1
        if kind == "fin":
            self.transactions_finished += 1

    def note_waited(self, kind: str) -> None:
        self.waited[kind] = self.waited.get(kind, 0) + 1

    @property
    def total_processed(self) -> int:
        return sum(self.processed.values())

    @property
    def total_waited(self) -> int:
        return sum(self.waited.values())
