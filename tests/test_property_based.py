"""Property-based tests (hypothesis) on the core invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import Scheme0, Scheme1, Scheme2, Scheme3
from repro.core.events import Init, Ser
from repro.core.tsgd import TSGD, candidate_dependencies
from repro.lmdbs.lock_manager import LockManager, LockMode
from repro.schedules.model import Operation, OpType, Schedule
from repro.schedules.serialization_graph import serialization_graph
from repro.workloads.traces import Trace, drive
from tests.reference.serializability import serial_schedule
from tests.support import CheckedScheme2

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

items = st.sampled_from(["x", "y", "z"])
txns = st.sampled_from(["T1", "T2", "T3", "T4"])


@st.composite
def data_operations(draw, size=st.integers(2, 14)):
    count = draw(size)
    ops = []
    for _ in range(count):
        op_type = draw(st.sampled_from([OpType.READ, OpType.WRITE]))
        ops.append(Operation(op_type, draw(txns), draw(items)))
    return ops


@st.composite
def schedules(draw):
    return Schedule(draw(data_operations()))


@st.composite
def traces(draw):
    site_names = ["s0", "s1", "s2"]
    count = draw(st.integers(1, 8))
    records = []
    pending = []
    for index in range(count):
        sites = tuple(
            draw(
                st.lists(
                    st.sampled_from(site_names),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        records.append(Init(f"G{index}", sites=sites))
        pending.extend(Ser(f"G{index}", site=site) for site in sites)
    indices = draw(st.permutations(range(len(pending))))
    records.extend(pending[i] for i in indices)
    return Trace(tuple(records))


@st.composite
def tsgds(draw):
    tsgd = TSGD()
    site_names = ["s0", "s1", "s2", "s3"]
    count = draw(st.integers(1, 5))
    for index in range(count):
        sites = draw(
            st.lists(
                st.sampled_from(site_names),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        tsgd.insert_transaction(f"G{index}", sites)
        # keep the invariant the scheme maintains: eliminate as we insert
        delta = tsgd.eliminate_cycles(f"G{index}")
        tsgd.add_dependencies(sorted(delta))
    return tsgd, count


# ----------------------------------------------------------------------
# schedule-theory invariants
# ----------------------------------------------------------------------


class TestScheduleProperties:
    @given(schedules())
    @settings(max_examples=120)
    def test_witness_order_is_conflict_consistent(self, schedule):
        """If CSR, replaying transactions serially in witness order must
        leave every conflict pair ordered consistently with the SG."""
        if not serialization_graph(schedule).is_acyclic():
            return
        witness = serialization_graph(schedule).topological_order()
        serial = serial_schedule(schedule, witness)
        assert serialization_graph(serial).is_acyclic()
        position = {t: i for i, t in enumerate(witness)}
        for source, target in serialization_graph(schedule).edges:
            assert position[source] < position[target]

    @given(schedules())
    @settings(max_examples=60)
    def test_serial_schedules_always_serializable(self, schedule):
        order = tuple(dict.fromkeys(op.transaction_id for op in schedule))
        assert serialization_graph(serial_schedule(schedule, order)).is_acyclic()

    @given(schedules())
    @settings(max_examples=60)
    def test_projection_preserves_serializability(self, schedule):
        """Removing whole transactions cannot create a cycle."""
        if not serialization_graph(schedule).is_acyclic():
            return
        ids = schedule.transaction_ids
        projected = schedule.projection(ids[: max(1, len(ids) // 2)])
        assert serialization_graph(projected).is_acyclic()


# ----------------------------------------------------------------------
# scheme invariants
# ----------------------------------------------------------------------


class TestSchemeProperties:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_all_schemes_produce_serializable_ser(self, trace):
        """Theorems 3, 5, 8 plus Scheme 0: every scheme keeps ser(S)
        serializable and completes every transaction (liveness)."""
        for factory in (Scheme0, Scheme1, Scheme2, Scheme3):
            result = drive(factory(), trace)
            assert result.ser_schedule.is_serializable()
            assert result.metrics.transactions_finished == len(
                trace.transactions
            )

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_scheme3_dominates_wait_free_streams(self, trace):
        """The precise form of the paper's §7 dominance claim: Scheme 3
        permits *all* serializable schedules, so any stream some other
        scheme processes without delaying a ser-operation (hence
        serializable in arrival order) is processed by Scheme 3 without
        delays as well.  (Per-trace wait *counts* are not pointwise
        comparable: a greedy accept can commit Scheme 3 to an order that
        costs more waits later.)"""
        for factory in (Scheme0, Scheme1, Scheme2):
            if drive(factory(), trace).ser_waits == 0:
                assert drive(Scheme3(), trace).ser_waits == 0
                break

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_scheme2_invariant_tsgd_acyclic(self, trace):
        """Scheme 2's inductive invariant: the TSGD stays acyclic after
        every init (checked exhaustively on small instances)."""
        scheme = CheckedScheme2()
        drive(scheme, trace)  # raises internally if the invariant breaks


# ----------------------------------------------------------------------
# TSGD invariants
# ----------------------------------------------------------------------


class TestTSGDProperties:
    @given(tsgds())
    @settings(max_examples=60, deadline=None)
    def test_eliminate_cycles_postcondition(self, built):
        tsgd, count = built
        for index in range(count):
            assert not tsgd.has_dangerous_cycle_through(f"G{index}")

    @given(tsgds())
    @settings(max_examples=40, deadline=None)
    def test_full_candidate_set_is_sufficient(self, built):
        tsgd, count = built
        tsgd.insert_transaction("GX", ["s0", "s1", "s2"])
        full = set(candidate_dependencies(tsgd, "GX"))
        assert not tsgd.has_dangerous_cycle_through("GX", full)


# ----------------------------------------------------------------------
# lock-manager invariants
# ----------------------------------------------------------------------


@st.composite
def lock_scripts(draw):
    script = []
    for _ in range(draw(st.integers(1, 25))):
        action = draw(st.sampled_from(["request", "release_all"]))
        txn = draw(txns)
        if action == "request":
            script.append(
                (
                    "request",
                    txn,
                    draw(items),
                    draw(st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])),
                )
            )
        else:
            script.append(("release_all", txn))
    return script


class TestLockManagerProperties:
    @given(lock_scripts())
    @settings(max_examples=120)
    def test_holders_always_compatible(self, script):
        locks = LockManager()
        universe = {"x", "y", "z"}
        pending = set()
        for step in script:
            if step[0] == "request":
                _, txn, item, mode = step
                if (txn, item) in pending:
                    continue  # one queued request per (txn, item)
                granted = locks.request(txn, item, mode)
                if not granted:
                    pending.add((txn, item))
            else:
                _, txn = step
                locks.release_all(txn)
                pending = {p for p in pending if p[0] != txn}
            for item in universe:
                holders = locks.holders(item)
                exclusive = [
                    t for t, m in holders.items() if m is LockMode.EXCLUSIVE
                ]
                if exclusive:
                    assert len(holders) == 1
