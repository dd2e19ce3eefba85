"""The fault injector: the single authority on what goes wrong, when.

The :class:`~repro.mdbs.simulator.MDBSSimulator` consults the injector at
every boundary crossing:

- each message leg (GTM→server→site and back) asks :meth:`message_fate`
  and gets back a tuple of extra delays — one per delivered copy, empty
  when the message is lost;
- each delivery goes through the site's :class:`SiteChannel`, which makes
  submissions *idempotent*: every submission carries a unique sequence
  number, duplicate deliveries of an in-flight submission are suppressed,
  and re-deliveries of a completed submission replay the cached result
  instead of re-executing (so a retry after a lost ack is safe);
- site down-windows are tracked here so messages to a dark site vanish.

Every draw — a message fate or a retry jitter — comes from the stream of
the channel it names (a site, or ``replica-<rank>``), keyed
``{plan.seed}/{channel}``; the workload RNG is never touched, so
enabling fault injection does not perturb the workload itself.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.faults.model import FaultStats
from repro.faults.plan import FaultPlan
from repro.schedules.model import Operation


def site_up(db, injector: Optional["FaultInjector"] = None, now: float = 0.0) -> bool:
    """Whether *db*'s site can answer right now: the DBMS is available
    and no injector down-window covers it.  The single availability
    check used by servers, the simulator, and 2PC participants (they
    each used to test ``db.available`` / ``injector.site_down`` ad hoc)."""
    if not db.available:
        return False
    return injector is None or not injector.site_down(db.site, now)

#: Result handler of one delivery: ``on_result(value, aborted, replayed)``.
#: ``replayed`` is True when the result comes from the idempotency cache
#: (no service time is charged again).
ResultHandler = Callable[[Any, bool, bool], None]


class SiteChannel:
    """Idempotent delivery ledger of one site (the server-side half of
    the sequence-number protocol).  Survives site crashes — it models the
    network/server stub, not the DBMS — so a commit that executed before
    a crash still acknowledges positively afterwards."""

    def __init__(self, site: str, stats: FaultStats) -> None:
        self.site = site
        self.stats = stats
        #: submissions delivered and currently executing (or blocked)
        self._inflight: Set[int] = set()
        #: completed submissions: seq -> (value, aborted)
        self._results: Dict[int, Tuple[Any, bool]] = {}
        #: 2PC control messages (PREPARE/DECIDE) use their own ledger:
        #: same idempotency rules, but results are single values
        self._control_inflight: Set[int] = set()
        self._control_results: Dict[int, Any] = {}

    def deliver(
        self,
        seq: int,
        operation: Operation,
        db,
        read_set: Optional[frozenset],
        write_set: Optional[frozenset],
        still_wanted: Optional[Callable[[], bool]],
        on_result: ResultHandler,
    ) -> None:
        """Deliver one copy of submission *seq*; execute at most once."""
        cached = self._results.get(seq)
        if cached is not None:
            # the earlier ack may have been lost in transit: replay it
            self.stats.cached_acks_replayed += 1
            value, aborted = cached
            on_result(value, aborted, True)
            return
        if seq in self._inflight:
            self.stats.duplicate_deliveries_suppressed += 1
            return
        if still_wanted is not None and not still_wanted():
            return  # orphaned submission of a finished incarnation
        if not db.accepts(operation):
            # the site no longer knows this transaction (a crash wiped
            # it, or the GTM already aborted it there): negative ack
            self.stats.unknown_transaction_nacks += 1
            self._results[seq] = (None, True)
            on_result(None, True, False)
            return
        self._inflight.add(seq)

        def callback(op: Operation, value: Any, aborted: bool) -> None:
            self._results[seq] = (value, aborted)
            self._inflight.discard(seq)
            on_result(value, aborted, False)

        db.submit(
            operation,
            callback=callback,
            read_set=read_set,
            write_set=write_set,
        )

    def deliver_control(
        self,
        seq: int,
        execute: Callable[[Callable[[Any], None]], None],
        on_result: Callable[[Any, bool], None],
    ) -> None:
        """Deliver one copy of 2PC control message *seq* (PREPARE or
        DECIDE); execute at most once.  *execute* receives a ``done``
        continuation it must call exactly once with the result —
        synchronously (a vote) or later (a commit decision applying).
        ``on_result(result, replayed)`` fires per delivered copy."""
        if seq in self._control_results:
            self.stats.cached_acks_replayed += 1
            on_result(self._control_results[seq], True)
            return
        if seq in self._control_inflight:
            self.stats.duplicate_deliveries_suppressed += 1
            return
        self._control_inflight.add(seq)

        def done(result: Any) -> None:
            if seq not in self._control_inflight:
                # a crash cancelled this execution; the retry protocol
                # will re-deliver and re-execute
                return
            self._control_inflight.discard(seq)
            self._control_results[seq] = result
            on_result(result, False)

        execute(done)

    def on_crash(self) -> None:
        """The site crashed: in-flight control executions die with it
        (their ``done`` continuations are disarmed above), so retries
        after restart re-execute instead of waiting forever.  Completed
        results survive — the ledger models the durable server stub."""
        self._control_inflight.clear()


class FaultInjector:
    """Draws every fault decision of one run from a seeded plan."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        #: one stream per channel, built on its first draw (string seeds
        #: hash deterministically in CPython's Random)
        self._streams: Dict[str, random.Random] = {}
        self.stats = FaultStats()
        self._sequence = itertools.count(1)
        self._channels: Dict[str, SiteChannel] = {}
        self._down_until: Dict[str, float] = {}
        self._down_since: Dict[str, float] = {}
        #: closed per-site outage windows: (site, went_down, came_up)
        self.availability_windows: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------
    # submission sequencing / idempotency
    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """A fresh submission sequence number (unique per run)."""
        return next(self._sequence)

    def channel(self, site: str) -> SiteChannel:
        channel = self._channels.get(site)
        if channel is None:
            channel = self._channels[site] = SiteChannel(site, self.stats)
        return channel

    # ------------------------------------------------------------------
    # message faults
    # ------------------------------------------------------------------
    def _stream(self, channel: str) -> random.Random:
        """The ``{seed}/{channel}`` stream every draw on *channel* takes."""
        rng = self._streams.get(channel)
        if rng is None:
            rng = self._streams[channel] = random.Random(
                f"{self.plan.seed}/{channel}"
            )
        return rng

    def message_fate(self, channel: str) -> Tuple[float, ...]:
        """The fate of one message on *channel*: a tuple of extra
        delays, one per delivered copy; ``()`` means the message is
        lost."""
        config = self.plan.messages
        self.stats.messages_sent += 1
        if not config.any_enabled:
            return (0.0,)
        rng = self._stream(channel)
        if config.loss_rate and rng.random() < config.loss_rate:
            self.stats.messages_dropped += 1
            return ()
        delays = [self._extra_delay(rng)]
        if (
            config.duplication_rate
            and rng.random() < config.duplication_rate
        ):
            self.stats.messages_duplicated += 1
            delays.append(self._extra_delay(rng))
        return tuple(delays)

    def _extra_delay(self, rng: random.Random) -> float:
        config = self.plan.messages
        if config.delay_rate and rng.random() < config.delay_rate:
            self.stats.messages_delayed += 1
            extra = config.delay_scale * (
                rng.paretovariate(config.delay_shape) - 1.0
            )
            return min(extra, config.max_delay)
        return 0.0

    def jitter(self, base: float, fraction: float, channel: str) -> float:
        """Jitter draw on *channel*: ``base * (1 + U[0, fraction])``."""
        if fraction <= 0:
            return base
        return base * (1.0 + fraction * self._stream(channel).random())

    # ------------------------------------------------------------------
    # site availability
    # ------------------------------------------------------------------
    def mark_down(
        self, site: str, until: float, since: Optional[float] = None
    ) -> None:
        if site not in self._down_until and since is not None:
            self._down_since[site] = since
        self._down_until[site] = max(self._down_until.get(site, 0.0), until)

    def mark_up(self, site: str, at: Optional[float] = None) -> None:
        self._down_until.pop(site, None)
        since = self._down_since.pop(site, None)
        if since is not None and at is not None:
            self.availability_windows.append((site, since, at))

    def site_down(self, site: str, now: float) -> bool:
        until = self._down_until.get(site)
        return until is not None and now < until
