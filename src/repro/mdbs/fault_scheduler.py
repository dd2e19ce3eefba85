"""Executes a :class:`~repro.faults.model.FaultPlan` against a running
simulation (paper §8's future-work direction).

Timed GTM2 and site crashes, fault points keyed to protocol progress,
site restart, quarantine of repeatedly-crashing sites and the orphan
sweep live here.  Message faults do not: they are drawn by the injector
inside the :class:`~repro.mdbs.server.MessagePlane`.  Built only when
the simulator is given an injector.
"""

from __future__ import annotations

from dataclasses import astuple
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Set, Tuple

from repro.faults.injector import FaultInjector
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.events import EventLoop

#: a site crashing this many times is quarantined: new incarnations
#: touching it fail fast instead of stalling (graceful degradation)
QUARANTINE_AFTER_CRASHES = 3


class FaultScheduler:
    """Crash schedule, quarantine and orphan reaping of one run."""

    def __init__(
        self,
        loop: EventLoop,
        sites: Mapping[str, LocalDBMS],
        injector: FaultInjector,
        config,
        runtimes: Mapping[str, Any],
        *,
        is_up: Callable[[str], bool],
        abort_global: Callable[[str, str], None],
        abort_orphan: Callable[[str, str], None],
        recover_gtm2: Callable[[], float],
    ) -> None:
        self._loop = loop
        self._sites = sites
        self.injector = injector
        #: how long after a global abort the orphan sweep waits before
        #: reaping the incarnation's leftovers at the sites (covers the
        #: in-flight abort messages of the run's ``SimulationConfig``)
        self._orphan_grace = max(4 * config.latencies.message_delay, 10.0)
        #: incarnation -> live runtime, owned by the kernel
        self._runtimes = runtimes
        self._is_up = is_up
        self._abort_global = abort_global
        self._abort_orphan = abort_orphan
        self._recover_gtm2 = recover_gtm2
        #: components told ``on_site_crash(site)`` / ``on_site_restart
        #: (site)``, in subscription order
        self.site_listeners: List[Any] = []
        #: sites removed from service after repeated crashes
        self.quarantined: Set[str] = set()
        #: wall-clock GTM2 recovery times (seconds), for benchmarks
        self.gtm_recovery_times: List[float] = []
        #: incarnation -> abort time, for the orphan sweep
        self._aborted_at: Dict[str, float] = {}
        self._scheduled = False
        #: (plan list, index) of progress-keyed fault scenarios already
        #: injected (see :meth:`at_progress`)
        self._progress_faults_fired: Set[Tuple[str, int]] = set()

    def schedule(self) -> None:
        """Schedule the plan's GTM and site crashes (once per run)."""
        if self._scheduled:
            return
        self._scheduled = True
        for at in self.injector.plan.gtm_crashes:
            if at >= self._loop.now:
                self._loop.schedule_at(at, self._crash_gtm)
        for crash in self.injector.plan.site_crashes:
            if crash.at >= self._loop.now and crash.site in self._sites:
                self._loop.schedule_at(
                    crash.at, partial(self.crash_site, crash.site, crash.downtime)
                )

    def _crash_gtm(self) -> None:
        """Crash GTM2 (the conservative scheduler); the kernel recovers
        it from the journal and reports how long the rebuild took."""
        self.injector.stats.gtm_crashes += 1
        self.gtm_recovery_times.append(self._recover_gtm2())

    # ------------------------------------------------------------------
    # fault points keyed to protocol progress
    # ------------------------------------------------------------------
    def at_progress(
        self,
        scenarios: str,
        reached: Tuple,
        inject: Callable[[float], None],
    ) -> None:
        """Fault points keyed to protocol progress instead of time.
        *scenarios* names a ``FaultPlan`` list whose entries are
        ``(progress key..., how long)`` records; each entry whose key
        equals *reached* is injected — ``inject(how_long)`` as its own
        event, right after the step that got there — exactly once."""
        for index, scenario in enumerate(
            getattr(self.injector.plan, scenarios)
        ):
            if (scenarios, index) in self._progress_faults_fired:
                continue
            *key, how_long = astuple(scenario)
            if tuple(key) == reached:
                self._progress_faults_fired.add((scenarios, index))
                self._loop.schedule(0.0, partial(inject, how_long))

    def crash_site_at(self, scenarios: str, site: str, count: int) -> None:
        """:meth:`at_progress` for the scenarios keyed ``(site, count)``
        whose fault is that site going dark."""
        self.at_progress(
            scenarios, (site, count), partial(self.crash_site, site)
        )

    # ------------------------------------------------------------------
    # site crash / restart / quarantine
    # ------------------------------------------------------------------
    def crash_site(self, site: str, downtime: float) -> None:
        """Crash one site: every in-flight transaction there aborts (the
        abort listeners tell the GTM), the site refuses submissions for
        the downtime, then restarts empty."""
        db = self._sites[site]
        self.injector.stats.site_crashes += 1
        now = self._loop.now
        self.injector.mark_down(site, now + downtime, since=now)
        db.crash(f"site {site!r} crashed")
        # in-flight control executions die with the site (a no-op when
        # no 2PC control message was ever delivered there)
        self.injector.channel(site).on_crash()
        for listener in self.site_listeners:
            listener.on_site_crash(site)
        if db.crash_count >= QUARANTINE_AFTER_CRASHES:
            self._quarantine(site)
        self._loop.schedule(downtime, partial(self._restart_site, site))

    def _restart_site(self, site: str) -> None:
        self._sites[site].restart()
        self.injector.mark_up(site, at=self._loop.now)
        for listener in self.site_listeners:
            listener.on_site_restart(site)

    def _quarantine(self, site: str) -> None:
        """Take a repeatedly-crashing site out of service: abort the
        in-flight incarnations touching it and fail fast any restart or
        new admission that needs it (graceful degradation)."""
        if site in self.quarantined:
            return
        self.quarantined.add(site)
        for runtime in list(self._runtimes.values()):
            if not runtime.done and site in runtime.program.sites:
                self._abort_global(
                    runtime.incarnation, f"site {site!r} quarantined"
                )

    # ------------------------------------------------------------------
    # orphan sweep
    # ------------------------------------------------------------------
    def note_abort(self, incarnation: str) -> None:
        """The GTM gave up on *incarnation* now; its site-side leftovers
        become reapable after the grace period."""
        self._aborted_at[incarnation] = self._loop.now

    def reap_orphans(self, now: float) -> None:
        """Abort site-side leftovers of incarnations the GTM already
        aborted — the backstop for lost abort messages (an orphan holding
        locks would otherwise stall the site until the watchdog killed
        its victims one by one)."""
        for site, db in self._sites.items():
            if not self._is_up(site):
                continue
            leftovers = db.active_transactions | db.blocked_transactions
            for transaction_id in sorted(leftovers):
                aborted_at = self._aborted_at.get(transaction_id)
                if aborted_at is None or transaction_id in self._runtimes:
                    continue
                if now - aborted_at >= self._orphan_grace:
                    self._abort_orphan(site, transaction_id)
                    self.injector.stats.orphans_reaped += 1

    def report_fields(self) -> Dict[str, Any]:
        """The :class:`SimulationReport` fields this component owns."""
        return dict(
            quarantined_sites=tuple(sorted(self.quarantined)),
            fault_stats=self.injector.stats,
            availability_windows=tuple(self.injector.availability_windows),
        )
