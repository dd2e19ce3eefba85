"""Replica routing beside GTM1 (:mod:`repro.replication`).

Site-free programs (:class:`~repro.replication.LogicalProgram`) are
mapped to concrete per-site accesses by the available-copies rule at every
incarnation start (writes to all up copies, reads to one read-eligible
copy); read-only programs never enter the GTM and run here against the
committed multiversion snapshot.  Built only when the simulator is
given a replica map — without one the paper's single-copy model runs
and none of this exists.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.gtm import Access, GlobalProgram
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.events import EventLoop
from repro.mdbs.fault_scheduler import FaultScheduler
from repro.replication import (
    CatchupTracker,
    LogicalProgram,
    ReplicaMap,
    ReplicationStats,
)


class ReplicaRouter:
    """Available-copies routing, snapshot reads and site catch-up."""

    def __init__(
        self,
        loop: EventLoop,
        sites: Mapping[str, LocalDBMS],
        config,
        replica_map: ReplicaMap,
        faults: Optional[FaultScheduler],
        is_up: Callable[[str], bool],
    ) -> None:
        self._loop = loop
        self._sites = sites
        #: the run's ``SimulationConfig`` (latencies and restart budget
        #: of snapshot reads)
        self._config = config
        self.replica_map = replica_map
        #: quarantine, and crashes keyed to replicated-write progress
        self._faults = faults
        self._is_up = is_up
        #: what the replication layer did (see repro.replication.model)
        self.stats = ReplicationStats()
        self.catchup = CatchupTracker(
            replica_map, lambda: loop.now, self.stats
        )
        #: logical (site-free) programs, re-routed at every incarnation
        self.programs: Dict[str, LogicalProgram] = {}
        #: per-item rotation counters for read-one routing (deterministic
        #: — the workload RNG is never consulted)
        self._rotation: Dict[str, int] = {}
        #: read-only snapshot transactions (kept out of the kernel's
        #: program table so exactly-once/atomicity checks see only
        #: read-write globals)
        self.snapshot_committed: List[str] = []
        self.snapshot_failed: List[str] = []
        self.snapshot_read_times: List[float] = []
        #: per-site counts of executed global writes of replicated items
        #: (drives FaultPlan.crash_after_writes)
        self._replicated_writes: Dict[str, int] = {}
        for site, db in sites.items():
            db.clock = lambda: loop.now
            db.commit_listeners.append(
                lambda txn, items, at, s=site: self.catchup.on_commit(s, items)
            )

    # ------------------------------------------------------------------
    # routing (available-copies rule)
    # ------------------------------------------------------------------
    def _in_service(self, site: str) -> bool:
        quarantined = self._faults is not None and site in self._faults.quarantined
        return not quarantined and self._is_up(site)

    def route(self, logical: str) -> Optional[GlobalProgram]:
        """Map the accesses of logical program *logical* to concrete
        per-site accesses, or None when some access has no routable copy
        right now (the caller backs off and retries — re-routing around
        the outage).

        Writes fan out to every up copy; a copy that is dark at routing
        time is simply skipped (its catch-up quarantine covers the
        missed write), but one that dies *after* routing makes the
        prepare fail and the 2PC vote abort the writer."""
        program = self.programs[logical]
        accesses: List[Access] = []
        for access in program.accesses:
            if access.kind == "w":
                targets = [
                    site
                    for site in self.replica_map.sites_of(access.item)
                    if self._in_service(site)
                ]
                if not targets:
                    self.stats.route_retries += 1
                    return None
                self.stats.writes_fanout += len(targets)
                for site in targets:
                    accesses.append(Access(site, "w", access.item))
            else:
                copy = self._pick_read_copy(logical, access.item)
                if copy is None:
                    return None
                accesses.append(Access(copy, "r", access.item))
        return GlobalProgram(logical, tuple(accesses))

    def _pick_read_copy(self, logical: str, item: str) -> Optional[str]:
        """One read-eligible copy of *item* — in service and past
        catch-up for it — rotating deterministically across calls so
        load spreads without touching any RNG."""
        copies = self.replica_map.sites_of(item)
        eligible = [
            site
            for site in copies
            if self._in_service(site)
            and self.catchup.read_eligible(site, item)
        ]
        if not eligible:
            if any(
                not self.catchup.read_eligible(site, item)
                and self._is_up(site)
                for site in copies
            ):
                # a copy is up but recovering: the available-copies rule
                # refuses the stale read rather than serve missed writes
                self.stats.stale_reads_refused += 1
            self.stats.route_retries += 1
            return None
        turn = self._rotation.get(item, 0)
        self._rotation[item] = turn + 1
        copy = eligible[turn % len(eligible)]
        self.stats.reads_routed += 1
        return copy

    # ------------------------------------------------------------------
    # read-only snapshot transactions (never enter the GTM)
    # ------------------------------------------------------------------
    def run_snapshot(self, logical: str, stats: Any, attempt: int = 0) -> None:
        """Execute read-only logical program *logical* against the
        committed multiversion snapshot as of now: each read is served
        by one read-eligible copy via ``get_committed_version_at`` — no
        GTM admission, no ser-operations, no WAIT, no 2PC.  *stats* is
        the kernel's per-transaction record; its ``committed_at`` is
        stamped when the last read lands."""
        snapshot_ts = self._loop.now
        latencies = self._config.latencies
        per_read = 2 * latencies.message_delay + latencies.service_time
        accesses = self.programs[logical].accesses

        def step(index: int) -> None:
            if index >= len(accesses):
                self.snapshot_committed.append(logical)
                stats.committed_at = self._loop.now
                self.snapshot_read_times.append(stats.response_time)
                return
            item = accesses[index].item
            copy = self._pick_read_copy(logical, item)
            if copy is None:
                if attempt < self._config.max_restarts:
                    self._loop.schedule(
                        self._config.restart_backoff,
                        lambda: self.run_snapshot(logical, stats, attempt + 1),
                    )
                else:
                    self.snapshot_failed.append(logical)
                return
            self._sites[copy].storage.get_committed_version_at(item, snapshot_ts)
            self.stats.snapshot_reads += 1
            self._loop.schedule(per_read, lambda: step(index + 1))

        step(0)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def wrote(self, site: str, item: str) -> None:
        """A global write of *item* completed at *site*.  Fault point:
        crash-between-replica-writes (the window where a partial fan-out
        must abort, not commit)."""
        if self._faults is not None and self.replica_map.is_replicated(item):
            count = self._replicated_writes.get(site, 0) + 1
            self._replicated_writes[site] = count
            self._faults.crash_site_at("crash_after_writes", site, count)

    def on_site_crash(self, site: str) -> None:
        self.catchup.on_crash(site)

    def on_site_restart(self, site: str) -> None:
        # catch-up mode: the site's replicated copies are stale (reads
        # refused) until a fresh committed write reaches them
        self.catchup.on_restart(site)

    def report_fields(self) -> Dict[str, Any]:
        """The :class:`SimulationReport` fields this component owns."""
        return dict(
            replication=self.stats,
            snapshot_committed=len(self.snapshot_committed),
            snapshot_failed=len(self.snapshot_failed),
            snapshot_read_times=tuple(self.snapshot_read_times),
        )
