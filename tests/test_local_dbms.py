"""Tests for the LocalDBMS facade: submission, blocking, callbacks,
aborts, and history logging."""

import pytest

from repro.exceptions import ProtocolViolation
from repro.lmdbs.database import LocalDBMS
from repro.lmdbs.protocols.optimistic import OptimisticConcurrencyControl
from repro.lmdbs.protocols.timestamp_ordering import BasicTimestampOrdering
from repro.lmdbs.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.schedules.model import OpType, begin, commit, read, write
from repro.schedules.serialization_graph import serialization_graph
from tests.support import AckRecorder


def make_db(protocol=None, initial=None):
    return LocalDBMS("s1", protocol or StrictTwoPhaseLocking(), initial)


class TestBasicFlow:
    def test_read_returns_value(self):
        db = make_db(initial={"x": 10})
        acks = AckRecorder(db)
        db.submit(begin("T1", "s1"))
        assert acks.submit(read("T1", "x", "s1")) == [(10, False)]

    def test_program_order_enforced(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T1", "x", "s1"))
        db.submit(read("T2", "x", "s1"))  # blocked
        with pytest.raises(ProtocolViolation):
            db.submit(read("T2", "y", "s1"))

    def test_wrong_site_rejected(self):
        db = make_db()
        with pytest.raises(ProtocolViolation):
            db.submit(begin("T1", "s2"))

    def test_operation_before_begin_rejected(self):
        db = make_db()
        with pytest.raises(ProtocolViolation):
            db.submit(read("T1", "x", "s1"))

    def test_double_begin_rejected(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        with pytest.raises(ProtocolViolation):
            db.submit(begin("T1", "s1"))


class TestBlockingAndCallbacks:
    def test_blocked_then_unblocked_via_callback(self):
        db = make_db()
        acks = AckRecorder(db)
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T1", "x", "s1"))
        blocked_read = acks.submit(read("T2", "x", "s1"))
        assert blocked_read == []
        assert db.is_blocked("T2")
        assert acks.submit(commit("T1", "s1")) == [(None, False)]
        # T1's commit released the lock: T2's read ran and was answered
        assert blocked_read == [(None, False)]
        assert not db.is_blocked("T2")
        acks.check_exactly_once()

    def test_callback_fires_for_immediate_execution(self):
        db = make_db(initial={"x": 5})
        values = []
        db.submit(begin("T1", "s1"))
        db.submit(
            read("T1", "x", "s1"),
            callback=lambda op, value, aborted: values.append(value),
        )
        assert values == [5]

    def test_blocked_count_tracked(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T1", "x", "s1"))
        db.submit(write("T2", "x", "s1"))
        assert db.blocked_count == 1


class TestAborts:
    def test_to_rejection_aborts_submitter(self):
        db = make_db(BasicTimestampOrdering())
        acks = AckRecorder(db)
        aborted = []
        db.abort_listeners.append(lambda txn, reason: aborted.append(txn))
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T2", "x", "s1"))
        assert acks.submit(read("T1", "x", "s1")) == [(None, True)]
        assert aborted == ["T1"]
        assert not db.is_active("T1")

    def test_deadlock_victim_callback_notified(self):
        db = make_db()
        acks = AckRecorder(db)
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(read("T1", "x", "s1"))
        db.submit(read("T2", "y", "s1"))
        first = acks.submit(write("T1", "y", "s1"))
        assert first == []  # blocks
        second = acks.submit(write("T2", "x", "s1"))
        # T2 died (youngest); T1's blocked write was then granted
        assert second == [(None, True)]
        assert first == [(None, False)]
        acks.check_exactly_once()

    def test_external_abort_wakes_waiters(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T1", "x", "s1"))
        woken = []
        db.submit(
            read("T2", "x", "s1"),
            callback=lambda op, v, aborted: woken.append(aborted),
        )
        db.abort_transaction("T1", "test")
        assert woken == [False]

    def test_abort_listener_invoked(self):
        db = make_db()
        seen = []
        db.abort_listeners.append(lambda txn, reason: seen.append(txn))
        db.submit(begin("T1", "s1"))
        db.abort_transaction("T1")
        assert seen == ["T1"]

    def test_abort_recorded_in_history(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.abort_transaction("T1")
        kinds = [op.op_type for op in db.history.schedule]
        assert OpType.ABORT in kinds


class TestHistory:
    def test_history_is_execution_order(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(read("T1", "x", "s1"))
        db.submit(write("T2", "x", "s1"))  # blocks
        db.submit(commit("T1", "s1"))
        db.submit(commit("T2", "s1"))
        committed = db.history.committed_schedule()
        assert serialization_graph(committed).is_acyclic()
        reprs = [repr(op) for op in db.history.schedule]
        # T2's write appears after T1's commit (when it actually ran)
        assert reprs.index("c_T1@s1") < reprs.index("w_T2[x]@s1")

    def test_occ_defers_write_logging(self):
        db = make_db(OptimisticConcurrencyControl())
        db.submit(begin("T1", "s1"))
        db.submit(write("T1", "x", "s1"))
        # not yet in the history: installed at commit
        assert all(not op.is_write for op in db.history.schedule)
        db.submit(commit("T1", "s1"))
        assert any(op.is_write for op in db.history.schedule)

    def test_value_plumbing(self):
        db = make_db()
        db.submit(begin("T1", "s1"))
        db.submit(write("T1", "x", "s1"))
        db.write_value("T1", "x", 99)
        db.submit(commit("T1", "s1"))
        assert db.storage.committed_value("x") == 99
