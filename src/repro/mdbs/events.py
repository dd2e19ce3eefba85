"""Deterministic discrete-event simulation core.

A tiny heap-driven event loop: events are ``(time, sequence, action)``
triples; ties break on the insertion sequence number, so a run is fully
determined by its seed and schedule of insertions.

Cancellation is O(1) and leak-free: ``ScheduledEvent.cancel`` drops the
closed-over action immediately (a cancelled ack-timeout timer must not
pin a dead server in memory until its time arrives), the loop keeps a
live counter so ``pending`` never scans the heap, and once cancelled
entries outnumber live ones the heap is compacted in place — preserving
the ``(time, sequence)`` order exactly, so compaction can never change a
run's outcome.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.exceptions import ReproError

Action = Callable[[], None]

#: compaction only kicks in past this heap size — tiny heaps rebuild in
#: noise time anyway and the churn would dominate
_COMPACT_MIN = 64


class SimulationError(ReproError):
    """The event loop was driven past its configured horizon."""


class ScheduledEvent:
    """A handle to a pending event; ``cancel()`` makes it a no-op.

    Cancellation is how the resilient servers disarm ack-timeout timers
    once the ack arrives, instead of letting dead timers fire and be
    filtered by flag checks.

    A plain ``__slots__`` class rather than ``@dataclass(slots=True)``:
    the dataclass form needs Python >= 3.10 and this package supports
    3.9, while the slot layout matters — the loop allocates one of these
    per scheduled event."""

    __slots__ = ("time", "action", "cancelled", "fired", "_loop")

    def __init__(
        self,
        time: float,
        action: Optional[Action],
        cancelled: bool = False,
        fired: bool = False,
        _loop: Optional["EventLoop"] = None,
    ) -> None:
        self.time = time
        self.action = action
        self.cancelled = cancelled
        self.fired = fired
        self._loop = _loop

    def __repr__(self) -> str:
        return (
            f"ScheduledEvent(time={self.time!r}, action={self.action!r}, "
            f"cancelled={self.cancelled!r}, fired={self.fired!r})"
        )

    def cancel(self) -> None:
        # cancelling a fired timer is a common benign race (an ack
        # arrives after its timeout already went off) — it must not
        # touch the loop's live-event accounting
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # drop the action now: a cancelled timer's closure must not keep
        # servers/participants reachable until the heap pops it
        self.action = None
        if self._loop is not None:
            self._loop._note_cancelled()


class EventLoop:
    """A deterministic future-event list."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        #: non-cancelled events still in the heap (kept exact by
        #: push/pop/cancel so ``pending`` is O(1))
        self._live = 0
        #: events executed so far
        self.executed = 0
        #: heap compactions performed (instrumentation)
        self.compactions = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, action: Action) -> ScheduledEvent:
        """Schedule *action* at ``now + delay`` (delay ≥ 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._push(self._now + delay, action)

    def schedule_at(self, time: float, action: Action) -> ScheduledEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self._now})"
            )
        return self._push(time, action)

    def _push(self, time: float, action: Action) -> ScheduledEvent:
        event = ScheduledEvent(time, action, _loop=self)
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        self._live += 1
        return event

    def _note_cancelled(self) -> None:
        self._live -= 1
        if (
            len(self._heap) > _COMPACT_MIN
            and self._live * 2 < len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries.  Entries keep their ``(time, seq)``
        keys, and ``heapify`` of the filtered list reproduces the exact
        pop order, so this is invisible to the simulation."""
        self._heap = [
            entry for entry in self._heap if not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self.compactions += 1

    @property
    def pending(self) -> int:
        return self._live

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until the heap empties, ``until`` passes, or the event
        budget is exhausted; returns the final simulation time."""
        while self._heap:
            time, _seq, event = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            self._now = time
            action = event.action
            event.fired = True
            event.action = None  # fired events release their closure too
            action()
            self.executed += 1
            if self.executed > max_events:
                raise SimulationError(
                    f"event budget exceeded at t={self._now}"
                )
        return self._now
