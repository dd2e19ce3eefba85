"""The end-of-run serializability checks against what they replaced.

``SerSchedule.serialization_graph`` is the per-site chain reduction of
the all-pairs graph (``tests/reference/ser_all_pairs.py``): same
reachability, so same verdict and same valid witnesses.  ``verify`` is
one union + one Kahn pass; ``tests/reference/verify_scan.py`` keeps the
three-pass version over pair-by-pair graphs, and the reports must be
equal field for field.  The size guards at the bottom fail on a
quadratic or three-pass regression without reading a clock.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.baselines.nonconservative import TimestampGTM
from repro.exceptions import NonSerializableError
from repro.mdbs.verification import committed_ser_projection, verify
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from repro.schedules.model import Operation, OpType, Schedule
from repro.schedules.serialization_graph import DirectedGraph, union_graph
from repro.workloads.traces import drive, random_trace
from tests.reference.ser_all_pairs import (
    all_pairs_serialization_graph,
    closure,
    is_topological_order,
)
from tests.reference.verify_scan import (
    scan_transaction_ids,
    scan_union_graph,
    scan_verify,
)
from tests.reference.theorems import serialization_order_consistent
from tests.test_global_schedule import make_global

SITES = ("s0", "s1", "s2")
GLOBALS = ("G1", "G2", "G3", "G4")


def ser_ops(text):
    """``"a@s0 b@s0 a@s0"`` -> SerOperations."""
    return [SerOperation(*token.split("@")) for token in text.split()]


ser_operation_lists = st.lists(
    st.builds(SerOperation, st.sampled_from(GLOBALS), st.sampled_from(SITES)),
    max_size=24,
)


def assert_matches_all_pairs(operations):
    schedule = SerSchedule(iter(operations))
    oracle = all_pairs_serialization_graph(operations)
    graph = schedule.serialization_graph()
    assert schedule.transaction_ids == scan_transaction_ids(operations)
    assert graph.nodes == oracle.nodes
    assert graph.edge_count <= len(operations)
    assert closure(graph) == closure(oracle)
    assert schedule.is_serializable() == oracle.is_acyclic()
    if oracle.is_acyclic():
        assert is_topological_order(oracle, schedule.witness_order())
    else:
        with pytest.raises(NonSerializableError):
            schedule.witness_order()


# -- ser(S): chains vs all pairs
@given(operations=ser_operation_lists)
@example(operations=ser_ops("G1@s0 G1@s0 G2@s0"))  # adjacent repeat
@example(operations=ser_ops("G1@s0 G2@s0 G1@s0"))  # a b a: cyclic
@example(operations=ser_ops("G1@s0 G2@s0 G3@s0 G2@s0"))  # single site
@example(operations=ser_ops("G1@s0 G2@s0 G2@s1 G1@s1"))  # cross-site cycle
@settings(max_examples=300, deadline=None)
def test_ser_chains_have_the_closure_of_all_pairs(operations):
    assert_matches_all_pairs(operations)


@given(
    operations=ser_operation_lists,
    aborted=st.sets(st.sampled_from(GLOBALS)),
)
@settings(max_examples=200, deadline=None)
def test_ser_chains_on_the_aborted_incarnation_projection(
    operations, aborted
):
    """``drive`` and ``committed_ser_projection`` drop the aborted
    incarnations' operations; the survivors' chains skip over them."""
    assert_matches_all_pairs(
        [op for op in operations if op.transaction_id not in aborted]
    )


@pytest.mark.parametrize("seed", range(4))
def test_drive_checks_the_committed_projection_on_chains(seed):
    result = drive(TimestampGTM(), random_trace(40, 4, 3, seed=seed))
    assert result.aborted
    assert not set(result.aborted) & set(result.ser_schedule.transaction_ids)
    assert_matches_all_pairs(list(result.ser_schedule))
    assert result.ser_schedule.is_serializable()


# -- verify: one pass vs three
@st.composite
def global_schedules(draw):
    sites = SITES[: draw(st.integers(1, 3))]
    transactions = st.sampled_from(GLOBALS[:3] + ("L1", "L2"))
    locals_ = {}
    for site in sites:
        count = draw(st.integers(0, 10))
        locals_[site] = Schedule(
            Operation(
                draw(st.sampled_from([OpType.READ, OpType.WRITE])),
                draw(transactions),
                draw(st.sampled_from(["x", "y"])),
                site,
            )
            for _ in range(count)
        )
    return GlobalSchedule(locals_, global_transaction_ids=GLOBALS)


NAMED_SCHEDULES = {
    "acyclic": {"s0": "rG1[a] wG2[a] wL1[b]", "s1": "rG1[b] wG2[b]"},
    "locally_cyclic": {"s0": "rG1[a] wG2[a] rG2[b] wG1[b]", "s1": "rG3[c]"},
    # the paper's motivating case: each site serializable, the cycle
    # G1 -> L1 -> G2 -> L2 -> G1 exists only in the union
    "cyclic_only_in_union": {
        "s0": "rG1[a] wL1[a] wL1[b] rG2[b]",
        "s1": "rG2[c] wL2[c] wL2[d] rG1[d]",
    },
}


def assert_same_report(schedule, ser_schedule=None):
    report = verify(schedule, ser_schedule)
    assert dataclasses.asdict(report) == dataclasses.asdict(
        scan_verify(schedule, ser_schedule)
    )
    return report


@pytest.mark.parametrize("name", NAMED_SCHEDULES)
def test_verify_equals_three_pass_reference_on_named_cases(name):
    report = assert_same_report(make_global(NAMED_SCHEDULES[name]))
    assert report.globally_serializable == (name == "acyclic")
    assert report.locals_serializable == (name != "locally_cyclic")
    assert bool(report.cycle) == (name != "acyclic")
    assert bool(report.witness) == (name == "acyclic")


@given(schedule=global_schedules(), operations=ser_operation_lists)
@settings(max_examples=300, deadline=None)
def test_verify_equals_three_pass_reference(schedule, operations):
    """Acyclic, locally cyclic and union-only-cyclic schedules all occur
    in this space; ``operations`` may name transactions with no local
    history (aborted ghosts), which the committed projection drops."""
    ser_schedule = SerSchedule(operations)
    assert_same_report(schedule)
    assert_same_report(schedule, ser_schedule)
    for site in schedule.sites:
        local = schedule.local_schedule(site)
        assert local.transaction_ids == scan_transaction_ids(local)
    assert_matches_all_pairs(
        list(committed_ser_projection(schedule, ser_schedule))
    )
    graphs = list(schedule.local_serialization_graphs().values())
    union, reference = union_graph(graphs), scan_union_graph(graphs)
    assert (union.nodes, union.edges) == (reference.nodes, reference.edges)
    assert [union.predecessors(node) for node in union.nodes] == [
        reference.predecessors(node) for node in reference.nodes
    ]


def test_order_consistency_is_false_on_a_cyclic_ser_schedule():
    schedule = make_global(NAMED_SCHEDULES["acyclic"])
    cyclic = SerSchedule(ser_ops("G1@s0 G2@s0 G2@s1 G1@s1"))
    assert not serialization_order_consistent(schedule, cyclic)
    assert serialization_order_consistent(
        schedule, SerSchedule(ser_ops("G1@s0 G2@s0 G1@s1 G2@s1"))
    )


# -- size guards, no clocks
def test_ser_graph_has_at_most_one_edge_per_operation():
    """2 000 transactions crossing 3 sites in one order: the all-pairs
    graph would hold 3 * 2000² / 2 = 6 000 000 edges."""
    schedule = SerSchedule(
        SerOperation(f"G{index}", site)
        for index in range(2000)
        for site in SITES
    )
    assert len(schedule) == 6000
    assert schedule.serialization_graph().edge_count <= 6000
    assert schedule.is_serializable()
    assert schedule.witness_order() == schedule.transaction_ids


def test_verify_on_an_acyclic_schedule_never_searches_for_a_cycle(
    monkeypatch,
):
    calls = []
    find_cycle = DirectedGraph.find_cycle

    def counting(self, start=None):
        calls.append(self)
        return find_cycle(self, start)

    monkeypatch.setattr(DirectedGraph, "find_cycle", counting)
    schedule = make_global(NAMED_SCHEDULES["acyclic"])
    assert verify(schedule).ok
    assert calls == []
    # with ser(S), its own acyclicity test is the only search
    ser_schedule = SerSchedule(ser_ops("G1@s0 G2@s0 G1@s1 G2@s1"))
    assert verify(schedule, ser_schedule).ok
    assert len(calls) <= 1
    # and a cyclic union still gets its witness cycle and local verdicts
    del calls[:]
    cyclic = make_global(NAMED_SCHEDULES["cyclic_only_in_union"])
    report = verify(cyclic)
    assert report.cycle and report.locals_serializable
    assert len(calls) == 1 + len(cyclic.sites)
