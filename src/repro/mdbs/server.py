"""Server processes (paper §2.1).

The GTM communicates with the local DBMSs through *servers* — one per
transaction per site — that submit operations and report acknowledgements.
In the simulator a :class:`Server` adds the message and service latencies
around a :class:`~repro.lmdbs.database.LocalDBMS` call: the submission
reaches the site after ``message_delay``, the operation occupies the site
for ``service_time`` once granted, and the acknowledgement travels back
after another ``message_delay``.

:class:`ResilientServer` is the fault-tolerant variant used when fault
injection is enabled: every submission carries a unique sequence number
and flows through the site's idempotent delivery channel
(:class:`~repro.faults.injector.SiteChannel`), each message leg is
one :meth:`MessagePlane.send` (the injector's loss/duplication/delay
faults apply), and an ack-timeout with capped exponential backoff and
jittered retries re-sends submissions whose acknowledgement never
arrived.  The
completion callback fires **exactly once** per submission regardless of
how many duplicate acks the network produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.faults.injector import FaultInjector, site_up
from repro.faults.model import RetryPolicy
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.events import EventLoop, ScheduledEvent
from repro.schedules.model import Operation, OpType

#: Completion callback: ``callback(operation, value, aborted)`` at ack time.
Completion = Callable[[Operation, Any, bool], None]


@dataclass
class Latencies:
    """Timing model of one site's server link."""

    message_delay: float = 1.0
    service_time: float = 1.0


class Server:
    """One transaction's server at one site."""

    def __init__(
        self,
        transaction_id: str,
        db: LocalDBMS,
        loop: EventLoop,
        latencies: Optional[Latencies] = None,
    ) -> None:
        self.transaction_id = transaction_id
        self.db = db
        self.loop = loop
        self.latencies = latencies or Latencies()

    def submit(
        self,
        operation: Operation,
        completion: Completion,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> None:
        """Submit *operation*; *completion* fires when the ack returns."""

        def deliver() -> None:
            if not self.db.accepts(operation):
                # the site is dark or no longer knows the transaction
                # (possible only under crashes/faults): negative ack
                self.loop.schedule(
                    self.latencies.message_delay,
                    lambda: completion(operation, None, True),
                )
                return

            def local_callback(
                op: Operation, value: Any, aborted: bool
            ) -> None:
                # grant (or abort) happened now; ack arrives after the
                # service time plus the return trip
                delay = self.latencies.service_time + self.latencies.message_delay
                if aborted:
                    delay = self.latencies.message_delay
                self.loop.schedule(
                    delay, lambda: completion(op, value, aborted)
                )

            self.db.submit(
                operation,
                callback=local_callback,
                read_set=read_set,
                write_set=write_set,
            )

        self.loop.schedule(self.latencies.message_delay, deliver)

    def abort(self, reason: str = "") -> None:
        """Abort this transaction at the site, after the message delay."""

        def deliver() -> None:
            if self.db.is_active(self.transaction_id) or self.db.is_blocked(
                self.transaction_id
            ):
                self.db.abort_transaction(self.transaction_id, reason)

        self.loop.schedule(self.latencies.message_delay, deliver)

    # ------------------------------------------------------------------
    # 2PC control messages (repro.commit)
    # ------------------------------------------------------------------
    def prepare(
        self, participant, completion: Callable[[bool], None]
    ) -> None:
        """Phase 1: ask the site's participant for a vote; *completion*
        receives it (True = YES) after the round trip."""

        def deliver() -> None:
            vote = participant.on_prepare(self.transaction_id)
            delay = self.latencies.message_delay + (
                self.latencies.service_time if vote else 0.0
            )
            self.loop.schedule(delay, lambda: completion(vote))

        self.loop.schedule(self.latencies.message_delay, deliver)

    def decide(
        self,
        participant,
        commit: bool,
        completion: Callable[[bool], None],
    ) -> None:
        """Phase 2: deliver the coordinator's decision; *completion*
        receives the participant's ack (True = decision applied)."""

        def deliver() -> None:
            def acked(ok: bool) -> None:
                delay = self.latencies.message_delay + (
                    self.latencies.service_time if (ok and commit) else 0.0
                )
                self.loop.schedule(delay, lambda: completion(ok))

            participant.on_decide(self.transaction_id, commit, acked)

        self.loop.schedule(self.latencies.message_delay, deliver)


class ResilientServer(Server):
    """A server link that survives message loss, duplication, delay, and
    site crashes (see module docstring)."""

    def __init__(
        self,
        transaction_id: str,
        db: LocalDBMS,
        plane: MessagePlane,
        still_wanted: Optional[Callable[[], bool]] = None,
    ) -> None:
        super().__init__(transaction_id, db, plane.loop, plane.latencies)
        self.plane = plane
        self.injector: FaultInjector = plane.injector
        self.retry = plane.retry or RetryPolicy()
        #: liveness predicate of the submission: when it turns False the
        #: GTM no longer cares (incarnation aborted/completed) and all
        #: retries and late deliveries become no-ops
        self.still_wanted = still_wanted
        self._done = False
        self._timer: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    def submit(
        self,
        operation: Operation,
        completion: Completion,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> None:
        channel = self.injector.channel(self.db.site)
        self._exchange(
            deliver=lambda seq, on_result: channel.deliver(
                seq,
                operation,
                self.db,
                read_set,
                write_set,
                self.still_wanted,
                on_result,
            ),
            completion=lambda value, aborted: completion(
                operation, value, aborted
            ),
            # an abort occupies the site for no service time
            charge_service=lambda value, aborted: not aborted,
            # COMMIT submissions are never abandoned: once a commit may
            # have executed, giving up and restarting the incarnation
            # could apply its effects twice (docs/fault_model.md,
            # "exactly-once commit")
            unbounded=operation.op_type is OpType.COMMIT,
            # out of retries: report the submission as failed so the
            # GTM can abort and restart the incarnation
            give_up_result=(None, True),
        )

    def abort(self, reason: str = "") -> None:
        """Abort at the site; the message is subject to the same faults
        (a lost abort leaves an orphan, reaped by the GTM's orphan
        sweep)."""

        def deliver() -> None:
            if not self.db.available:
                return  # the crash already wiped the transaction
            if self.db.is_active(self.transaction_id) or self.db.is_blocked(
                self.transaction_id
            ):
                self.db.abort_transaction(self.transaction_id, reason)

        self.plane.send(deliver, self.db.site)

    # ------------------------------------------------------------------
    # 2PC control messages (repro.commit), fault-tolerant variant
    # ------------------------------------------------------------------
    def prepare(
        self, participant, completion: Callable[[bool], None]
    ) -> None:
        """Phase 1 over a faulty link.  Retries are *bounded*: under
        presumed abort a coordinator that never hears a vote simply
        decides abort, so giving up is reported as a NO vote."""
        self._control_exchange(
            execute=lambda done: done(
                participant.on_prepare(self.transaction_id)
            ),
            completion=completion,
            charge_service=bool,
            unbounded=False,
        )

    def decide(
        self,
        participant,
        commit: bool,
        completion: Callable[[bool], None],
    ) -> None:
        """Phase 2 over a faulty link.  Commit decisions are retried
        without bound (the decision is logged; abandoning delivery could
        leave a prepared participant blocked forever); abort decisions
        are cheap to re-send too, so the same loop serves both."""
        self._control_exchange(
            execute=lambda done: participant.on_decide(
                self.transaction_id, commit, done
            ),
            completion=completion,
            charge_service=lambda ok: bool(ok) and commit,
            unbounded=True,
        )

    def _control_exchange(
        self,
        execute: Callable[[Callable[[Any], None]], None],
        completion: Callable[[Any], None],
        charge_service: Callable[[Any], bool],
        unbounded: bool,
    ) -> None:
        """A 2PC control message: *execute* runs at most once at the
        site (the channel's control ledger); giving up reads as a NO."""
        channel = self.injector.channel(self.db.site)
        self._exchange(
            deliver=lambda seq, on_result: channel.deliver_control(
                seq, execute, on_result
            ),
            completion=completion,
            charge_service=charge_service,
            unbounded=unbounded,
            give_up_result=(False,),
        )

    def _exchange(
        self,
        deliver: Callable[[int, Callable[..., None]], None],
        completion: Callable[..., None],
        charge_service: Callable[..., bool],
        unbounded: bool,
        give_up_result: Tuple[Any, ...],
    ) -> None:
        """One idempotent request/ack exchange with the site: a sequence
        number, per-leg message fates, exactly-once execution through
        the site channel, an ack timeout with capped backoff and
        jittered retries.

        ``deliver(seq, on_result)`` hands one arrived copy to the
        channel, which answers ``on_result(*result, replayed)`` per
        copy; ``completion(*result)`` fires once.  ``charge_service``
        says whether a (first-hand, not replayed) result occupied the
        site for the service time.  Unless *unbounded*, the exchange
        gives up after ``retry.max_attempts`` sends and completes with
        *give_up_result*."""
        seq = self.injector.next_seq()
        attempt = {"count": 0}

        def finish(*result: Any) -> None:
            if self._done:
                return  # duplicate or late ack: already answered GTM1
            self._done = True
            if self._timer is not None:
                self._timer.cancel()
            completion(*result)

        def on_result(*answer: Any) -> None:
            # site -> GTM leg: service time, then the faulty return trip
            *result, replayed = answer
            service = (
                self.latencies.service_time
                if (not replayed and charge_service(*result))
                else 0.0
            )
            self.plane.send(lambda: finish(*result), self.db.site, service)

        def deliver_copy() -> None:
            if self._done:
                return
            if not site_up(self.db, self.injector, self.loop.now):
                return  # the site is dark; the ack timeout covers us
            deliver(seq, on_result)

        def send() -> None:
            attempt["count"] += 1
            if attempt["count"] > 1:
                self.injector.stats.retries += 1
            # GTM -> site leg: each delivered copy travels independently
            self.plane.send(deliver_copy, self.db.site)
            arm_timeout()

        def arm_timeout() -> None:
            timeout = self.injector.jitter(
                self.retry.timeout_for(attempt["count"]),
                self.retry.jitter,
                self.db.site,
            )

            def on_timeout() -> None:
                if self._done:
                    return
                if self.still_wanted is not None and not self.still_wanted():
                    return
                self.injector.stats.timeouts += 1
                if (
                    not unbounded
                    and attempt["count"] >= self.retry.max_attempts
                ):
                    self.injector.stats.give_ups += 1
                    finish(*give_up_result)
                    return
                send()

            self._timer = self.loop.schedule(timeout, on_timeout)

        send()


class MessagePlane:
    """The network: the single factory for GTM↔site server links and
    the only code that sends a message (:meth:`send`).

    Extracting this from the simulator gives transports one seam to own
    the message plane: the deterministic single-loop transport hands the
    simulator a plane over its one event loop, and the parallel
    transport hands each shard a plane over that shard's loop — with the
    fault injector *inside* the plane, so chaos plans apply to both
    runtimes identically.  A plane with no injector produces plain
    :class:`Server` links and certain single-copy deliveries; a plane
    with one produces :class:`ResilientServer` links and per-channel
    fate draws.  The commit layer (participants, coordinator group)
    sends through :meth:`send` too, so it never sees a latency or a
    fate.
    """

    def __init__(
        self,
        loop: EventLoop,
        latencies: Latencies,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.loop = loop
        self.latencies = latencies
        self.injector = injector
        self.retry = retry

    def server(
        self,
        transaction_id: str,
        db: LocalDBMS,
        still_wanted: Optional[Callable[[], bool]] = None,
    ) -> Server:
        """A server link for *transaction_id* at *db*'s site — resilient
        exactly when the plane injects faults."""
        if self.injector is None:
            return Server(transaction_id, db, self.loop, self.latencies)
        return ResilientServer(transaction_id, db, self, still_wanted)

    def send(
        self, action: Callable[[], None], channel: str, service: float = 0.0
    ) -> None:
        """Send one message on *channel* (a site, or ``replica-<rank>``):
        *action* runs once per delivered copy, ``service +
        message_delay`` plus that copy's extra delay from now.  The
        injector draws the copies from the channel's stream (none =
        lost); without one the message arrives exactly once.  *service*
        is the time the sender spends before the message leaves (a
        site's service time on an ack)."""
        delay = service + self.latencies.message_delay
        injector = self.injector
        fates = (0.0,) if injector is None else injector.message_fate(channel)
        for extra in fates:
            self.loop.schedule(delay + extra, action)
