"""Outcome counters of the replication layer (one run)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List


@dataclass
class ReplicationStats:
    """What the replication layer actually did during one run."""

    metric_prefix: ClassVar[str] = "replication"

    #: replica write targets routed (sum of per-write fan-out widths)
    writes_fanout: int = 0
    #: data reads routed to a chosen copy (snapshot reads included)
    reads_routed: int = 0
    #: reads refused because every surviving copy was a recovering site
    #: still waiting for a fresh committed write (available-copies rule)
    stale_reads_refused: int = 0
    #: admissions/steps re-scheduled because no copy was routable
    route_retries: int = 0
    #: reads served from the committed multiversion snapshot
    snapshot_reads: int = 0
    #: committed-write catch-up latencies of recovered replicated items,
    #: in simulated time units (restart → first fresh committed write)
    catchup_ms: List[float] = field(
        default_factory=list, metadata={"metric": "recovery.catchup_ms"}
    )
