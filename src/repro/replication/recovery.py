"""Site catch-up recovery: the available-copies state machine.

Each site moves through **up → down → recovering → up** (see
``docs/fault_model.md``).  While *recovering*, every replicated item the
site holds is *stale*: the site missed the writes committed elsewhere
during its downtime, and the available-copies rule forbids serving reads
of a stale copy — a fresh committed write must reach the copy first
(writes go to all up sites, so the next committed writer refreshes it).
Single-copy items never go stale: no sibling copy could have diverged,
so they are read-eligible the moment the site restarts.

The state transitions are driven by the quarantine/crash/restart path in
:mod:`repro.faults` (the simulator calls :meth:`on_crash` /
:meth:`on_restart`) and by commit notifications from the local DBMSs
(:attr:`~repro.lmdbs.database.LocalDBMS.commit_listeners`).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Set

from repro.replication.map import ReplicaMap
from repro.replication.model import ReplicationStats


class SiteState(enum.Enum):
    UP = "up"
    DOWN = "down"
    #: restarted, but at least one replicated copy is still stale
    RECOVERING = "recovering"


class CatchupTracker:
    """Tracks per-site availability state and per-item read eligibility."""

    def __init__(
        self,
        replica_map: ReplicaMap,
        clock: Callable[[], float],
        stats: ReplicationStats,
    ) -> None:
        self.replica_map = replica_map
        self.clock = clock
        self.stats = stats
        self._state: Dict[str, SiteState] = {}
        #: replicated items awaiting a fresh committed write, per site
        self._stale: Dict[str, Set[str]] = {}
        self._restarted_at: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # state transitions (driven by repro.faults crash/restart)
    # ------------------------------------------------------------------
    def state_of(self, site: str) -> SiteState:
        return self._state.get(site, SiteState.UP)

    def on_crash(self, site: str) -> None:
        self._state[site] = SiteState.DOWN
        self._stale.pop(site, None)
        self._restarted_at.pop(site, None)

    def on_restart(self, site: str) -> None:
        """The site came back: committed storage is intact, but every
        replicated copy it holds may have missed writes and is quarantined
        from reads until a fresh committed write lands on it."""
        stale = set(self.replica_map.replicated_items_at(site))
        if not stale:
            self._state[site] = SiteState.UP
            return
        self._state[site] = SiteState.RECOVERING
        self._stale[site] = stale
        self._restarted_at[site] = self.clock()

    def on_commit(self, site: str, items: Iterable[str]) -> None:
        """A transaction committed writes of *items* at *site*: each
        written stale copy is fresh again; the site leaves catch-up when
        its last stale copy is refreshed."""
        stale = self._stale.get(site)
        if not stale:
            return
        refreshed = stale.intersection(items)
        if not refreshed:
            return
        now = self.clock()
        started = self._restarted_at.get(site, now)
        for _item in refreshed:
            self.stats.catchup_ms.append(now - started)
        stale.difference_update(refreshed)
        if not stale:
            del self._stale[site]
            self._restarted_at.pop(site, None)
            self._state[site] = SiteState.UP

    # ------------------------------------------------------------------
    # routing queries
    # ------------------------------------------------------------------
    def read_eligible(self, site: str, item: str) -> bool:
        """Whether a read of *item* may be served by *site* right now:
        the site is not dark and the copy is not awaiting catch-up."""
        state = self.state_of(site)
        if state is SiteState.DOWN:
            return False
        return item not in self._stale.get(site, ())

    @property
    def recovering_sites(self) -> List[str]:
        return sorted(
            site
            for site, state in self._state.items()
            if state is SiteState.RECOVERING
        )

    def __repr__(self) -> str:
        return (
            f"<CatchupTracker recovering={self.recovering_sites} "
            f"stale={ {s: sorted(i) for s, i in self._stale.items()} }>"
        )
