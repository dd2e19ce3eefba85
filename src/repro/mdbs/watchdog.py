"""The liveness watchdog beside GTM1.

Cross-site blocking cycles are invisible to the local deadlock
detectors, so a global transaction that has made no progress for
``stall_timeout`` time units is aborted and restarted.  The watchdog
sees the kernel's program table and incarnation table as plain mappings
and aborts through the ``abort_global`` callable it is given.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.gtm import GlobalProgram, site_components
from repro.mdbs.events import EventLoop


class Watchdog:
    """Ticks every ``stall_timeout / 2`` while anything is live or
    pending and aborts one stalled incarnation per site component."""

    def __init__(
        self,
        loop: EventLoop,
        sites: Mapping[str, Any],
        stall_timeout: float,
        programs: Mapping[str, GlobalProgram],
        runtimes: Mapping[str, Any],
        abort_global: Callable[[str, str], None],
        sweep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._loop = loop
        self._sites = sites
        self._stall_timeout = stall_timeout
        self._programs = programs
        #: incarnation -> runtime (``done``, ``last_progress``,
        #: ``incarnation``, ``program``), owned by the kernel
        self._runtimes = runtimes
        self._abort_global = abort_global
        #: run at the start of every tick (the fault scheduler's orphan
        #: sweep rides this timer instead of adding events of its own)
        self._sweep = sweep
        self._partition: Optional[Dict[str, int]] = None
        self._armed = False
        #: global aborts this watchdog triggered
        self.aborts = 0

    def programs_changed(self) -> None:
        """The program table was written: recompute the partition at
        the next stalled tick."""
        self._partition = None

    def partition(self) -> Dict[str, int]:
        """Each site's index among the site components of the workload,
        recomputed only after the program table was written.  A live
        runtime runs its table entry or, after commit-site resumption, a
        subset of that entry's sites, so the runtimes never link sites
        the table does not."""
        if self._partition is None:
            self._partition = {
                site: index
                for index, component in enumerate(
                    site_components(self._sites, self._programs.values())
                )
                for site in component
            }
        return self._partition

    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self._loop.schedule(self._stall_timeout / 2, self._tick)

    def _tick(self) -> None:
        now = self._loop.now
        if self._sweep is not None:
            self._sweep(now)
        stalled = [
            runtime
            for runtime in self._runtimes.values()
            if not runtime.done
            and now - runtime.last_progress >= self._stall_timeout
        ]
        # one victim per *site component of the workload*: stalls in
        # disjoint components cannot be one deadlock, so a single
        # victim per tick would only stagger independent recoveries.
        # On a partitionable workload this matches the per-shard
        # watchdogs of the parallel transport — each shard is one
        # component.
        if stalled:
            component_of = self.partition()
            candidates: Dict[int, List[Any]] = {}
            for runtime in stalled:
                # a program's sites all lie in one component
                if runtime.program.sites:
                    candidates.setdefault(
                        component_of[runtime.program.sites[0]], []
                    ).append(runtime)
            # components are numbered in partition order
            for component in sorted(candidates):
                victim = min(
                    candidates[component],
                    key=lambda r: (r.last_progress, r.incarnation),
                )
                self.aborts += 1
                self._abort_global(victim.incarnation, "watchdog: no progress")
        if self._runtimes or self._loop.pending:
            self._loop.schedule(self._stall_timeout / 2, self._tick)
        else:
            # nothing left to watch; a later arm() starts a new one
            self._armed = False
