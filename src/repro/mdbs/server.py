"""Server processes (paper §2.1).

The GTM communicates with the local DBMSs through *servers* — one per
transaction per site — that submit operations and report acknowledgements.
A :class:`Server` is that link, written once: each of its legs (a
submission, an abort, a 2PC prepare or decide, and every
acknowledgement) is one :meth:`MessagePlane.send` on the site's channel.
The submission reaches the site after ``message_delay``, the operation
occupies the site for ``service_time`` once granted, and the
acknowledgement travels back after another ``message_delay``; the plane
is the only code here that reads a latency or schedules a message.

:class:`ResilientServer` is the same link with retries, used when fault
injection is enabled: every submission and 2PC control message carries a
unique sequence number and flows through the site's idempotent delivery
channel (:class:`~repro.faults.injector.SiteChannel`), and an ack-timeout
with capped exponential backoff and jittered retries re-sends requests
whose acknowledgement never arrived.  The completion callback fires
**exactly once** per request regardless of how many duplicate acks the
network produces.
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
    """One transaction's server at one site: a link without retries."""

    def __init__(
        self, transaction_id: str, db: LocalDBMS, plane: MessagePlane
    ) -> None:
        self.transaction_id = transaction_id
        self.db = db
        self.plane = plane

    def submit(
        self,
        operation: Operation,
        completion: Completion,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> None:
        """Submit *operation*; *completion* fires when the ack returns."""
        db, send = self.db, self.plane.send

        def deliver() -> None:
            if not db.accepts(operation):
                # the site is dark or no longer knows the transaction
                # (possible only under crashes/faults): negative ack
                send(lambda: completion(operation, None, True), db.site)
                return

            def local_callback(
                op: Operation, value: Any, aborted: bool
            ) -> None:
                # grant (or abort) happened now; the ack leaves after the
                # service time (an abort takes none)
                service = 0.0 if aborted else self.plane.latencies.service_time
                send(lambda: completion(op, value, aborted), db.site, service)

            db.submit(
                operation,
                callback=local_callback,
                read_set=read_set,
                write_set=write_set,
            )

        send(deliver, db.site)

    def abort(self, reason: str = "") -> None:
        """Abort this transaction at the site, one message away (a lost
        abort leaves an orphan, reaped by the GTM's orphan sweep)."""
        db, transaction_id = self.db, self.transaction_id

        def deliver() -> None:
            if not db.available:
                return  # the crash already wiped the transaction
            if db.is_active(transaction_id) or db.is_blocked(transaction_id):
                db.abort_transaction(transaction_id, reason)

        self.plane.send(deliver, db.site)

    # ------------------------------------------------------------------
    # 2PC control messages (repro.commit)
    # ------------------------------------------------------------------
    def prepare(
        self, participant, completion: Callable[[bool], None]
    ) -> None:
        """Phase 1: ask the site's participant for a vote; *completion*
        receives it (True = YES) after the round trip.  A link that
        retries gives up after *bounded* retries: under presumed abort a
        coordinator that never hears a vote simply decides abort, so
        giving up is reported as a NO."""
        self._control(
            lambda done: done(participant.on_prepare(self.transaction_id)),
            completion,
            charge_service=bool,
            unbounded=False,
        )

    def decide(
        self,
        participant,
        commit: bool,
        completion: Callable[[bool], None],
    ) -> None:
        """Phase 2: deliver the coordinator's decision; *completion*
        receives the participant's ack (True = decision applied).  A
        link that retries never gives up: the decision is logged, and
        abandoning delivery could leave a prepared participant blocked
        forever."""
        self._control(
            lambda done: participant.on_decide(
                self.transaction_id, commit, done
            ),
            completion,
            charge_service=lambda ok: bool(ok) and commit,
            unbounded=True,
        )

    def _control(
        self,
        execute: Callable[[Callable[[Any], None]], None],
        completion: Callable[[Any], None],
        charge_service: Callable[[Any], bool],
        unbounded: bool,
    ) -> None:
        """One 2PC control message: *execute* runs at the site and hands
        its result to a ``done`` continuation; the result travels back
        to *completion*, after the service time when *charge_service*
        says the site was occupied.  *unbounded* matters only to a link
        that retries."""
        plane, site = self.plane, self.db.site

        def done(result: Any) -> None:
            service = plane.latencies.service_time if charge_service(result) else 0.0
            plane.send(lambda: completion(result), site, service)

        plane.send(lambda: execute(done), site)


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
        super().__init__(transaction_id, db, plane)
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

    def _control(
        self,
        execute: Callable[[Callable[[Any], None]], None],
        completion: Callable[[Any], None],
        charge_service: Callable[[Any], bool],
        unbounded: bool,
    ) -> None:
        """A 2PC control message inside the retry loop: *execute* runs
        at most once at the site (the channel's control ledger); giving
        up reads as a NO."""
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
                self.plane.latencies.service_time
                if (not replayed and charge_service(*result))
                else 0.0
            )
            self.plane.send(lambda: finish(*result), self.db.site, service)

        def deliver_copy() -> None:
            if self._done:
                return
            if not site_up(self.db, self.injector, self.plane.loop.now):
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

            self._timer = self.plane.loop.schedule(timeout, on_timeout)

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
            return Server(transaction_id, db, self)
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
