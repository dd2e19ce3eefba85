"""Unit tests for the transaction/schedule model (repro.schedules.model)."""

import pytest

from repro.exceptions import ScheduleError, UnknownTransactionError
from repro.schedules.model import (
    Operation,
    OpType,
    Schedule,
    begin,
    commit,
    read,
    write,
)
from tests.support import (
    Transaction,
    interleave,
    parse_schedule,
    restriction,
    transactions_of,
)


class TestOperation:
    def test_read_requires_item(self):
        with pytest.raises(ScheduleError):
            Operation(OpType.READ, "T1")

    def test_write_requires_item(self):
        with pytest.raises(ScheduleError):
            Operation(OpType.WRITE, "T1")

    def test_begin_must_not_name_item(self):
        with pytest.raises(ScheduleError):
            Operation(OpType.BEGIN, "T1", item="x")

    def test_commit_must_not_name_item(self):
        with pytest.raises(ScheduleError):
            Operation(OpType.COMMIT, "T1", item="x")

    def test_seq_is_unique_and_increasing(self):
        first = read("T1", "x")
        second = read("T1", "x")
        assert second.seq > first.seq

    def test_repr_includes_site(self):
        assert "@s1" in repr(read("T1", "x", "s1"))

    def test_accessors(self):
        op = write("T2", "y", "s3")
        assert op.is_write and not op.is_read and op.accesses_data
        assert begin("T2").accesses_data is False


class TestConflicts:
    def test_rw_same_item_conflicts(self):
        assert read("T1", "x").conflicts_with(write("T2", "x"))

    def test_ww_same_item_conflicts(self):
        assert write("T1", "x").conflicts_with(write("T2", "x"))

    def test_rr_never_conflicts(self):
        assert not read("T1", "x").conflicts_with(read("T2", "x"))

    def test_same_transaction_never_conflicts(self):
        assert not read("T1", "x").conflicts_with(write("T1", "x"))

    def test_different_items_never_conflict(self):
        assert not write("T1", "x").conflicts_with(write("T2", "y"))

    def test_different_sites_never_conflict(self):
        assert not write("T1", "x", "s1").conflicts_with(write("T2", "x", "s2"))

    def test_begin_never_conflicts(self):
        assert not begin("T1").conflicts_with(write("T2", "x"))


class TestTransaction:
    def test_program_order_preserved(self):
        txn = Transaction("T1")
        txn.begin()
        txn.read("x")
        txn.write("y")
        txn.commit()
        kinds = [op.op_type for op in txn]
        assert kinds == [OpType.BEGIN, OpType.READ, OpType.WRITE, OpType.COMMIT]

    def test_no_operations_after_commit(self):
        txn = Transaction("T1")
        txn.begin()
        txn.commit()
        with pytest.raises(ScheduleError):
            txn.read("x")

    def test_no_double_begin_at_same_site(self):
        txn = Transaction("G1", is_global=True)
        txn.begin("s1")
        with pytest.raises(ScheduleError):
            txn.begin("s1")

    def test_global_transaction_multi_site_begins(self):
        txn = Transaction("G1", is_global=True)
        txn.begin("s1")
        txn.begin("s2")
        txn.read("x", "s1")
        txn.commit("s1")
        txn.commit("s2")
        assert txn.sites == ("s1", "s2")

    def test_wrong_transaction_id_rejected(self):
        txn = Transaction("T1")
        with pytest.raises(ScheduleError):
            txn.append(read("T2", "x"))

    def test_read_write_sets(self):
        txn = Transaction("T1")
        txn.begin()
        txn.read("x")
        txn.write("y")
        txn.write("x")
        assert txn.read_set == {"x"}
        assert txn.write_set == {"x", "y"}

    def test_restriction_preserves_order(self):
        txn = Transaction("T1")
        txn.begin()
        first = txn.read("x")
        second = txn.write("y")
        txn.commit()
        restricted = restriction(txn, [second, first])
        assert list(restricted) == [first, second]

    def test_restriction_rejects_foreign_operations(self):
        txn = Transaction("T1")
        txn.begin()
        with pytest.raises(ScheduleError):
            restriction(txn, [read("T2", "x")])

    def test_operations_at_site(self):
        txn = Transaction("G1", is_global=True)
        txn.begin("s1")
        txn.read("x", "s1")
        txn.begin("s2")
        assert len([op for op in txn if op.site == "s1"]) == 2


class TestSchedule:
    def test_append_twice_rejected(self):
        schedule = Schedule()
        op = read("T1", "x")
        schedule.append(op)
        with pytest.raises(ScheduleError):
            schedule.append(op)

    def test_precedes(self):
        first, second = read("T1", "x"), write("T2", "x")
        schedule = Schedule([first, second])
        assert schedule.precedes(first, second)
        assert not schedule.precedes(second, first)

    def test_position_of_unknown_operation(self):
        schedule = Schedule()
        with pytest.raises(UnknownTransactionError):
            schedule.position(read("T1", "x"))

    def test_projection(self):
        schedule = parse_schedule("r1[x] w2[x] r1[y]")
        projected = schedule.projection(["1"])
        assert [op.transaction_id for op in projected] == ["1", "1"]

    def test_committed_projection_drops_aborted(self):
        schedule = parse_schedule("b1 b2 w1[x] w2[y] c1 a2")
        committed = schedule.committed_projection()
        assert set(committed.transaction_ids) == {"1"}

    def test_committed_projection_drops_active(self):
        schedule = parse_schedule("b1 b2 w1[x] c1 w2[y]")
        committed = schedule.committed_projection()
        assert set(committed.transaction_ids) == {"1"}

    def test_transaction_ids_in_first_seen_order(self):
        schedule = parse_schedule("r2[x] r1[x] w2[y]")
        assert schedule.transaction_ids == ("2", "1")


class TestParseSchedule:
    def test_round_trip(self):
        schedule = parse_schedule("b1 r1[x] w1[y] c1")
        assert len(schedule) == 4
        assert schedule.operations[1].item == "x"

    def test_site_applied(self):
        schedule = parse_schedule("r1[x]", site="s9")
        assert schedule.operations[0].site == "s9"

    def test_bad_token_rejected(self):
        with pytest.raises(ScheduleError):
            parse_schedule("q1[x]")

    def test_malformed_brackets_rejected(self):
        with pytest.raises(ScheduleError):
            parse_schedule("r1[x")

    def test_missing_transaction_rejected(self):
        with pytest.raises(ScheduleError):
            parse_schedule("r[x]")


class TestHelpers:
    def test_transactions_of_groups(self):
        schedule = parse_schedule("b1 r1[x] b2 w2[x] c1 c2")
        groups = transactions_of(schedule)
        assert set(groups) == {"1", "2"}
        assert len(groups["1"]) == 3

    def test_interleave_produces_pattern(self):
        t1 = [read("T1", "x"), write("T1", "y")]
        t2 = [write("T2", "x")]
        schedule = interleave([t1, t2], [0, 1, 0])
        assert [op.transaction_id for op in schedule] == ["T1", "T2", "T1"]

    def test_interleave_rejects_exhausted(self):
        with pytest.raises(ScheduleError):
            interleave([[read("T1", "x")]], [0, 0])

    def test_interleave_rejects_unconsumed(self):
        with pytest.raises(ScheduleError):
            interleave([[read("T1", "x"), read("T1", "y")]], [0])
