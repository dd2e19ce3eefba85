"""Tests for GTM2 journaling and crash recovery (the paper's future-work
fault tolerance, implemented in :mod:`repro.core.recovery`)."""

import pytest

from repro.baselines import TimestampGTM
from repro.core import Scheme0, Scheme1, Scheme2, Scheme3, Scheme4
from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.recovery import Journal, recover_engine, replay_scheme
from repro.exceptions import SchedulerError
from repro.schedules.global_schedule import SerOperation, SerSchedule
from repro.workloads.traces import SyncGTM1
from tests.support import holds_transaction, queued, truncate

ALL_SCHEMES = [Scheme0, Scheme1, Scheme2, Scheme3, Scheme4]


def journaled_run(factory, records, crash_after=None):
    """Feed queue *records* through a synchronous GTM1 to a journaled
    engine; optionally stop feeding after ``crash_after`` records.
    Returns (journal, GTM1)."""
    journal = Journal()
    gtm1 = SyncGTM1()
    gtm1.engine = Engine(factory(), journal=journal, **gtm1.handlers)
    for record in records[:crash_after]:
        gtm1.insert(record)
    return journal, gtm1


def recover(gtm1, scheme, journal):
    """Point *gtm1* at the engine recovered from *journal* and run it."""
    gtm1.engine = recover_engine(scheme, journal, **gtm1.handlers)
    gtm1.engine.run()
    return gtm1.engine


WORKLOAD = [
    Init("G1", sites=("s1", "s2")),
    Init("G2", sites=("s1", "s2")),
    Ser("G1", site="s1"),
    Ser("G2", site="s2"),
    Ser("G2", site="s1"),
    Ser("G1", site="s2"),
]


class TestJournal:
    def test_outstanding_tracks_unprocessed(self):
        journal = Journal()
        op = Init("G1", sites=("s1",))
        journal.log_enqueued(op)
        assert journal.outstanding() == (op,)
        journal.log_processed(op)
        assert journal.outstanding() == ()

    def test_processed_but_never_enqueued_rejected(self):
        journal = Journal()
        journal.log_processed(Init("G1", sites=("s1",)))
        with pytest.raises(SchedulerError):
            journal.outstanding()

    def test_truncate_copies(self):
        journal = Journal()
        for index in range(3):
            journal.log_enqueued(Init(f"G{index}", sites=("s1",)))
        cut = truncate(journal, 2, 0)
        assert len(cut) == 2
        assert len(journal) == 3

    @pytest.mark.parametrize("purges_logged_at_seal", [0, 1])
    def test_seal_and_purge_at_same_position_interleave(
        self, purges_logged_at_seal
    ):
        """A purge and a demand-seal can both land between the same two
        acts; the seal marker's purge-count stamp replays them in their
        original relative order (seal-before-purge and purge-before-seal
        both end with G1 gone and only G2 planned)."""
        journal = Journal(
            processed=[
                Init("G1", sites=("s1",)),
                Init("G2", sites=("s1",)),
            ],
            purges=[(2, "G1")],
            seals=[(2, purges_logged_at_seal, "s1")],
        )
        replayed = replay_scheme(Scheme4(batch_size=8), journal)
        assert replayed._batch_of == {"G2": 0}
        assert "G1" not in replayed._seq
        assert replayed._pred[("G2", "s1")] is None


@pytest.mark.parametrize("factory", ALL_SCHEMES)
class TestReplayEquivalence:
    def test_replayed_scheme_continues_identically(self, factory):
        """Run the workload twice: straight through, and crash-recover
        midway; the final ser(S) must be identical."""
        # reference run
        _, reference = journaled_run(factory, WORKLOAD)
        reference.engine.assert_drained()

        # crashed run: stop feeding after 4 records, then recover
        journal, gtm1 = journaled_run(factory, WORKLOAD, crash_after=4)
        recover(gtm1, factory(), journal)
        # feed the rest of the workload
        for record in WORKLOAD[4:]:
            gtm1.insert(record)
        gtm1.engine.assert_drained()
        assert gtm1.submitted == reference.submitted

    def test_recovered_ser_schedule_serializable(self, factory):
        journal, gtm1 = journaled_run(factory, WORKLOAD, crash_after=5)
        recover(gtm1, factory(), journal)
        for record in WORKLOAD[5:]:
            gtm1.insert(record)
        gtm1.engine.assert_drained()
        ser = SerSchedule(
            SerOperation(op.transaction_id, op.site) for op in gtm1.submitted
        )
        assert ser.is_serializable()

    def test_replay_suppresses_side_effects(self, factory):
        journal, gtm1 = journaled_run(factory, WORKLOAD, crash_after=6)
        replayed = replay_scheme(factory(), journal)
        # binding the replayed scheme produced no live submissions: the
        # replay context swallowed them
        context = replayed.context
        assert len(context.replayed_submissions) == len(gtm1.submitted)


class TestScheme4RecoveryReplanning:
    def test_demand_sealed_plan_survives_crash(self):
        """A demand-seal fires inside cond_ser and is invisible to the
        act journal.  Recovery must not rebuild a plan that contradicts
        the ser-operations the sites already executed: G5 ran at s2
        before the crash, so no post-recovery plan may put G6 ahead of
        G5 anywhere (pre-fix, the replayed scheme re-buffered G5 and a
        later demand-seal preferred G6 at s1 by visit order)."""
        records = [Init("G5", sites=("s2", "s1")), Ser("G5", site="s2")]
        journal, gtm1 = journaled_run(lambda: Scheme4(batch_size=8), records)
        recovered = recover(gtm1, Scheme4(batch_size=8), journal)
        # the replayed transaction is planned, not re-buffered
        assert "G5" in recovered.scheme._batch_of
        tail = [
            Init("G6", sites=("s1", "s2")),
            Ser("G6", site="s1"),
            Ser("G5", site="s1"),
            Ser("G6", site="s2"),
        ]
        for record in tail:
            gtm1.insert(record)
        recovered.assert_drained()
        ser = SerSchedule(
            SerOperation(op.transaction_id, op.site) for op in gtm1.submitted
        )
        assert ser.is_serializable()
        per_site = {}
        for op in gtm1.submitted:
            per_site.setdefault(op.site, []).append(op.transaction_id)
        assert per_site["s1"] == per_site["s2"] == ["G5", "G6"]


    def test_demand_seal_markers_survive_buffer_refill(self):
        """Demand-seals are journaled (``Journal.seals``) so replay
        reproduces the original batch boundaries.  Without the markers,
        replay re-buffers the demand-sealed T1, T2's replayed init
        refills the buffer to batch_size, and the spurious seal plans
        {T1, T2} with order T2 < T1 (T2's visit order wins at site a) —
        even though site b executed T1 before the crash.  Post-recovery
        that plan serializes T2 before T1 at site a while site b already
        serialized T1 first: non-serializable."""
        journal = Journal()
        submissions = []
        engine = Engine(
            Scheme4(batch_size=2),
            submit_handler=submissions.append,
            journal=journal,
        )
        # T0@[b]: demand-sealed singleton, executed but not yet acked
        engine.enqueue(Init("T0", sites=("b",)))
        engine.enqueue(Ser("T0", site="b"))
        engine.run()
        # T1@[b,a]: demand-seals as a singleton; its ser@b waits
        # behind the unacked T0
        engine.enqueue(Init("T1", sites=("b", "a")))
        engine.enqueue(Ser("T1", site="b"))
        engine.run()
        # T2@[a,b] inits during the wait (the buffer refills to 1);
        # acking T0 then releases ser(T1, b)
        engine.enqueue(Init("T2", sites=("a", "b")))
        engine.enqueue(Ack("T0", site="b"))
        engine.run()
        assert [(op.transaction_id, op.site) for op in submissions] == [
            ("T0", "b"),
            ("T1", "b"),
        ]
        # both demand-seals were journaled at their positions
        assert [(position, site) for position, _, site in journal.seals] == [
            (1, "b"),
            (3, "b"),
        ]

        # crash; recover with a fresh scheme
        all_submissions = list(submissions)

        def on_submit(operation):
            all_submissions.append(operation)
            recovered.enqueue(
                Ack(operation.transaction_id, site=operation.site)
            )

        recovered = recover_engine(
            Scheme4(batch_size=2), journal, submit_handler=on_submit
        )
        recovered.run()
        scheme = recovered.scheme
        # the rebuilt plan matches the pre-crash one: T0 and T1 in
        # their own demand-sealed batches, T2 still buffered — not
        # swept into a spurious size-triggered seal during replay
        assert scheme._batch_of == {"T0": 0, "T1": 1}
        assert scheme._pred[("T1", "b")] == "T0"
        # the in-flight ack and the remaining sers finish the run
        tail = [
            Ack("T1", site="b"),
            Ser("T2", site="a"),
            Ser("T2", site="b"),
            Ser("T1", site="a"),
        ]
        for record in tail:
            recovered.enqueue(record)
            recovered.run()
        for transaction in ("T0", "T1", "T2"):
            recovered.enqueue(Fin(transaction))
        recovered.run()
        recovered.assert_drained()
        ser = SerSchedule(
            SerOperation(op.transaction_id, op.site)
            for op in all_submissions
        )
        assert ser.is_serializable()
        per_site = {}
        for op in all_submissions:
            per_site.setdefault(op.site, []).append(op.transaction_id)
        assert per_site["b"] == ["T0", "T1", "T2"]
        assert per_site["a"] == ["T1", "T2"]

    def test_replay_without_seal_markers_raises(self):
        """A journal stripped of its demand-seal markers cannot be
        replayed: the ser's batch was never planned, and inventing a
        plan could contradict the pre-crash order — the failure names
        the transaction and the missing marker instead."""
        records = [Init("G5", sites=("s2", "s1")), Ser("G5", site="s2")]
        journal, _ = journaled_run(lambda: Scheme4(batch_size=8), records)
        assert journal.seals  # the demand-seal was journaled...
        journal.seals.clear()  # ...and this journal lost it
        with pytest.raises(SchedulerError, match="'G5'.*log_sealed"):
            replay_scheme(Scheme4(batch_size=8), journal)

    def test_truncate_keeps_seal_markers(self):
        journal = Journal()
        submissions = []
        engine = Engine(
            Scheme4(batch_size=4),
            submit_handler=submissions.append,
            journal=journal,
        )
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        assert journal.seals == [(1, 0, "s1")]
        cut = truncate(journal, 2, 1)
        # the seal fired before act #1 ran, so it survives a crash that
        # lost everything after processed[:1]
        assert cut.seals == [(1, 0, "s1")]
        assert truncate(journal, 1, 0).seals == []


class TestRecoverIsRecoverable:
    def test_recovered_engine_keeps_journaling(self):
        journal, _ = journaled_run(Scheme0, WORKLOAD, crash_after=3)
        recovered = recover_engine(Scheme0(), journal)
        assert recovered.journal is journal
        before = len(journal.processed)
        recovered.run()
        assert len(journal.processed) >= before


class TestRecoveryAfterGTM2Abort:
    def test_victim_is_neither_rebuilt_nor_requeued(self):
        """TO aborts G1 in ``act_ser``; the journaled purge replays at
        its logged position, so the rebuilt scheme holds nothing of G1
        and recovery re-queues none of G1's operations — not even one
        logged after the abort."""
        journal, aborted = Journal(), []
        engine = Engine(
            TimestampGTM(), abort_handler=aborted.append, journal=journal
        )
        for operation in (
            Init("G1", sites=("s1", "s2")),
            Init("G2", sites=("s1",)),
            Ser("G2", site="s1"),
            Ser("G1", site="s1"),  # older than s1's high-water: abort
            Ser("G1", site="s2"),  # purged while still queued
        ):
            engine.enqueue(operation)
        engine.run()
        assert aborted == ["G1"]
        # logged at the crash but never processed
        engine.enqueue(Ser("G1", site="s2"))
        engine.enqueue(Init("G3", sites=("s2",)))

        recovered_aborts = []
        recovered = recover_engine(
            TimestampGTM(), journal, abort_handler=recovered_aborts.append
        )
        assert not holds_transaction(recovered.scheme, "G1")
        assert holds_transaction(recovered.scheme, "G2")
        assert queued(recovered) == (Init("G3", sites=("s2",)),)
        recovered.run()
        assert recovered_aborts == []
        recovered.assert_drained()
