"""Behavioural tests of Schemes 0–4 at the cond/act level, driven by the
engine with scripted queue orders."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import GTMSystem, GlobalProgram
from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme0 import Scheme0
from repro.core.scheme1 import Scheme1
from repro.core.scheme2 import Scheme2
from repro.core.scheme3 import Scheme3
from repro.core.scheme4 import Scheme4
from repro.exceptions import SchedulerError
from repro.lmdbs import LocalDBMS, make_protocol
from repro.workloads.traces import Trace, drive
from tests.support import CheckedScheme2, serialized_before

ALL_SCHEMES = [Scheme0, Scheme1, Scheme2, Scheme3, Scheme4]


class Harness:
    """Engine wrapper with manual ack control."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.submitted = []
        self.forwarded = []
        self.engine = Engine(
            scheme,
            submit_handler=self.submitted.append,
            ack_handler=self.forwarded.append,
        )

    def push(self, *operations):
        for operation in operations:
            self.engine.enqueue(operation)
        self.engine.run()

    def ack(self, txn, site):
        self.push(Ack(txn, site=site))

    @property
    def submitted_keys(self):
        return [(op.transaction_id, op.site) for op in self.submitted]


@pytest.mark.parametrize("factory", ALL_SCHEMES)
class TestCommonBehaviour:
    def test_single_transaction_flows(self, factory):
        h = Harness(factory())
        h.push(Init("G1", sites=("s1", "s2")))
        h.push(Ser("G1", site="s1"))
        assert ("G1", "s1") in h.submitted_keys
        h.ack("G1", "s1")
        h.push(Ser("G1", site="s2"))
        h.ack("G1", "s2")
        h.push(Fin("G1"))
        h.engine.assert_drained()
        assert len(h.forwarded) == 2

    def test_one_outstanding_per_site(self, factory):
        h = Harness(factory())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.push(Ser("G2", site="s1"))
        # G1 unacked: G2's ser must not have been submitted yet
        assert h.submitted_keys == [("G1", "s1")]
        h.ack("G1", "s1")
        assert ("G2", "s1") in h.submitted_keys

    def test_disjoint_sites_concurrent(self, factory):
        h = Harness(factory())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s2",)))
        h.push(Ser("G1", site="s1"), Ser("G2", site="s2"))
        assert set(h.submitted_keys) == {("G1", "s1"), ("G2", "s2")}

    def test_ser_order_never_cyclic(self, factory):
        """Adversarial order across two shared sites must not produce a
        cyclic ser(S): the scheme must delay one of the requests."""
        h = Harness(factory())
        h.push(
            Init("G1", sites=("s1", "s2")),
            Init("G2", sites=("s1", "s2")),
        )
        h.push(Ser("G1", site="s1"))
        # adversarial arrival: G2 wants s2 before G1 gets there
        h.push(Ser("G2", site="s2"))
        h.push(Ser("G2", site="s1"))
        h.push(Ser("G1", site="s2"))
        # ack everything that gets submitted until quiescence, then fins
        acked = set()
        fins_sent = set()
        for _ in range(10):
            for ser in list(h.submitted):
                key = (ser.transaction_id, ser.site)
                if key not in acked:
                    acked.add(key)
                    h.ack(*key)
            for txn in ("G1", "G2"):
                done = {k for k in acked if k[0] == txn}
                if len(done) == 2 and txn not in fins_sent:
                    fins_sent.add(txn)
                    h.push(Fin(txn))
        order = {}
        for txn, site in h.submitted_keys:
            order.setdefault(site, []).append(txn)
        # per-site orders must be consistent with a single global order
        assert order["s1"] == order["s2"]
        h.engine.assert_drained()


class TestScheme0:
    def test_serializes_in_init_order(self):
        h = Harness(Scheme0())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        # G2's request arrives first but G1 is ahead in the site queue
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == []
        h.push(Ser("G1", site="s1"))
        assert h.submitted_keys == [("G1", "s1")]
        h.ack("G1", "s1")
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]

    def test_fin_never_waits(self):
        h = Harness(Scheme0())
        h.push(Init("G1", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Fin("G1"))
        assert h.scheme.metrics.waited.get("fin", 0) == 0


class TestScheme1:
    def test_tree_insertions_not_marked(self):
        scheme = Scheme1()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s2", "s3")))
        assert scheme._marked == set()

    def test_cycle_insertion_marks_operations(self):
        scheme = Scheme1()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        assert scheme._marked == {("G2", "s1"), ("G2", "s2")}

    def test_marked_operation_waits_for_queue_front(self):
        scheme = Scheme1()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        h.push(Ser("G2", site="s1"))  # marked, G1 ahead in insert queue
        assert h.submitted_keys == []
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        # G1 acked and dequeued: G2 now first, its marked ser may run
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]

    def test_unmarked_operation_runs_out_of_init_order(self):
        scheme = Scheme1()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        # no cycle: G2 unmarked, may overtake G1
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == [("G2", "s1")]

    def test_fin_waits_for_delete_queue_order(self):
        scheme = Scheme1()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G2", site="s1"))
        h.ack("G2", "s1")
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        # delete queue order: G2 then G1 — G1's fin must wait for G2's
        h.push(Fin("G1"))
        assert scheme.metrics.waited.get("fin", 0) == 1
        h.push(Fin("G2"))
        h.engine.assert_drained()


class TestScheme2:
    def test_dependencies_recorded_on_execution(self):
        scheme = Scheme2()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        assert ("G1", "s1", "G2") in scheme.tsgd.dependencies

    def test_dependent_ser_waits_for_ack(self):
        scheme = Scheme2()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == [("G1", "s1")]
        h.ack("G1", "s1")
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]

    def test_init_adds_cycle_breaking_dependencies(self):
        scheme = Scheme2()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")))
        h.push(Init("G2", sites=("s1", "s2")))
        assert not scheme.tsgd.has_dangerous_cycle_through("G2")

    def test_fin_waits_for_incoming_dependencies(self):
        scheme = Scheme2()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Ser("G2", site="s1"))
        h.ack("G2", "s1")
        # G2 has an incoming dependency from G1 until G1 fins
        h.push(Fin("G2"))
        assert scheme.metrics.waited.get("fin", 0) == 1
        h.push(Fin("G1"))
        h.engine.assert_drained()

    def test_verify_elimination_flag(self):
        scheme = CheckedScheme2()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        # the exhaustive post-check passed: no dangerous cycle left
        assert not scheme.tsgd.has_dangerous_cycle_through("G2")


def trace_of(text):
    """A trace in the notation ``init G0@ab, ser G0@a, ...``: one record
    per comma, each site one letter."""
    records = []
    for token in text.split(", "):
        kind, operation = token.split(" ")
        transaction_id, sites = operation.split("@")
        records.append(
            Init(transaction_id, sites=tuple(sites))
            if kind == "init"
            else Ser(transaction_id, site=sites)
        )
    return Trace(tuple(records))


class TestScheme1Scheme2Incomparable:
    """§4: neither scheme permits every order the other does.  On the
    shape (ab, ab, a) — G0 and G1 at sites a and b, G2 at a alone — 40
    of the 2 240 ``drive()`` orders run wait-free under Scheme 1 only
    and 100 under Scheme 2 only; these are the first of each."""

    def test_an_order_only_scheme1_runs_wait_free(self):
        trace = trace_of(
            "init G0@ab, init G1@ab, init G2@a, ser G0@b, ser G1@b, "
            "ser G2@a, ser G0@a, ser G1@a"
        )
        assert drive(Scheme1(), trace).ser_waits == 0
        assert drive(Scheme2(), trace).ser_waits > 0

    def test_an_order_only_scheme2_runs_wait_free(self):
        trace = trace_of(
            "init G0@ab, init G2@a, init G1@ab, ser G0@a, ser G0@b, "
            "ser G1@a, ser G1@b, ser G2@a"
        )
        assert drive(Scheme2(), trace).ser_waits == 0
        assert drive(Scheme1(), trace).ser_waits > 0


class TestScheme3:
    def test_ser_bef_seeded_from_last(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Init("G2", sites=("s1",)))
        assert serialized_before(scheme, "G2") == {"G1"}

    def test_eager_update_of_waiters(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        assert serialized_before(scheme, "G2") == {"G1"}

    def test_blocks_contradictory_order(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        # G2 is now after G1; G2's ser at s2 would execute before G1's —
        # fine (G1 not yet serialized at s2, but G1 ∈ ser_bef(G2) and G1
        # is still in set_s2) → must wait
        h.push(Ser("G2", site="s2"))
        assert h.submitted_keys == [("G1", "s1")]
        h.push(Ser("G1", site="s2"))
        h.ack("G1", "s2")
        assert ("G2", "s2") in h.submitted_keys

    def test_allows_any_consistent_order(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        # G2 first everywhere — consistent, zero ser waits
        h.push(Ser("G2", site="s1"))
        h.ack("G2", "s1")
        h.push(Ser("G2", site="s2"))
        h.ack("G2", "s2")
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Ser("G1", site="s2"))
        h.ack("G1", "s2")
        assert scheme.metrics.waited.get("ser", 0) == 0

    def test_transitive_closure_maintained(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(
            Init("G1", sites=("s1",)),
            Init("G2", sites=("s1", "s2")),
            Init("G3", sites=("s2",)),
        )
        h.push(Ser("G1", site="s1"))  # G1 < G2
        h.ack("G1", "s1")
        h.push(Ser("G2", site="s2"))  # G2 < G3
        h.ack("G2", "s2")
        assert "G1" in serialized_before(scheme, "G3")

    def test_fin_waits_until_ser_bef_empty(self):
        scheme = Scheme3()
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Ser("G2", site="s1"))
        h.ack("G2", "s1")
        h.push(Fin("G2"))
        assert scheme.metrics.waited.get("fin", 0) == 1
        h.push(Fin("G1"))
        h.engine.assert_drained()


class TestScheme4:
    def test_full_batch_seals_on_init(self):
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)))
        assert scheme.metrics.batches_planned == 0
        h.push(Init("G2", sites=("s1",)))
        assert scheme.metrics.batches_planned == 1

    def test_partial_batch_seals_on_demand(self):
        scheme = Scheme4(batch_size=8)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)))
        # the batch never fills; the first ser seals it on demand
        h.push(Ser("G1", site="s1"))
        assert scheme.metrics.batches_planned == 1
        assert h.submitted_keys == [("G1", "s1")]

    def test_planned_chain_enforced(self):
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        # plan: G1 before G2 at s1 (same visit index, admission order)
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == []
        h.push(Ser("G1", site="s1"))
        assert h.submitted_keys == [("G1", "s1")]
        h.ack("G1", "s1")
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]

    def test_batch_size_one_degenerates_to_admission_order(self):
        # every batch is a singleton: Scheme 0's serialize-in-init-order
        # rule, paid through plan-chain probes instead of FIFO fronts
        scheme = Scheme4(batch_size=1)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        assert scheme.metrics.batches_planned == 2
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == []
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]

    def test_contradictory_site_preferences_drop_one_edge(self):
        # G1 visits (s1, s2), G2 visits (s2, s1): the per-site arrival
        # preferences contradict — the planner must drop the
        # cycle-closing edge and keep one total order
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(
            Init("G1", sites=("s1", "s2")),
            Init("G2", sites=("s2", "s1")),
        )
        assert scheme.metrics.batches_planned == 1
        assert scheme.metrics.plan_edges == 1  # second edge dropped
        h.push(
            Ser("G1", site="s1"),
            Ser("G2", site="s2"),
            Ser("G2", site="s1"),
            Ser("G1", site="s2"),
        )
        acked = set()
        for _ in range(4):
            for ser in list(h.submitted):
                key = (ser.transaction_id, ser.site)
                if key not in acked:
                    acked.add(key)
                    h.ack(*key)
        order = {}
        for txn, site in h.submitted_keys:
            order.setdefault(site, []).append(txn)
        assert order["s1"] == order["s2"]

    def test_fin_never_waits(self):
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.ack("G1", "s1")
        h.push(Ser("G2", site="s1"))
        h.ack("G2", "s1")
        h.push(Fin("G2"), Fin("G1"))
        assert scheme.metrics.waited.get("fin", 0) == 0
        h.engine.assert_drained()

    def test_purge_splices_chain(self):
        scheme = Scheme4(batch_size=3)
        h = Harness(scheme)
        h.push(
            Init("G1", sites=("s1",)),
            Init("G2", sites=("s1",)),
            Init("G3", sites=("s1",)),
        )
        h.push(Ser("G1", site="s1"))
        h.push(Ser("G2", site="s1"), Ser("G3", site="s1"))
        assert h.submitted_keys == [("G1", "s1")]
        # abort G2 mid-chain: G3 must inherit G1 as its predecessor
        h.engine.purge_transaction("G2")
        assert scheme._pred[("G3", "s1")] == "G1"
        h.ack("G1", "s1")
        assert h.submitted_keys == [("G1", "s1"), ("G3", "s1")]

    def test_components_batch_independently(self):
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s2",)))
        # disjoint components: neither buffer reached batch_size
        assert scheme.metrics.batches_planned == 0
        h.push(Init("G3", sites=("s1",)))
        # only the s1 component sealed
        assert scheme.metrics.batches_planned == 1
        h.push(Ser("G2", site="s2"))  # demand-seals the s2 component
        assert scheme.metrics.batches_planned == 2
        assert ("G2", "s2") in h.submitted_keys

    def test_explain_block_names_plan_position(self):
        scheme = Scheme4(batch_size=2)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        cause = scheme.explain_block(Ser("G2", site="s1"))
        assert cause == {
            "type": "batch-plan-order",
            "site": "s1",
            "blocking": "G1",
            "after": "G2",
            "batch": 0,
        }

    def test_explain_block_open_batch(self):
        scheme = Scheme4(batch_size=8)
        h = Harness(scheme)
        h.push(Init("G1", sites=("s1",)))
        cause = scheme.explain_block(Ser("G1", site="s1"))
        assert cause == {"type": "batch-open", "site": "s1", "after": "G1"}

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(SchedulerError):
            Scheme4(batch_size=0)

    def test_unannounced_ser_rejected(self):
        h = Harness(Scheme4())
        with pytest.raises(SchedulerError):
            h.push(Ser("G1", site="s1"))


# ----------------------------------------------------------------------
# scheme 4 property: random batched workloads stay serializable and the
# committed run is admissible under the ground-truth verifier
# ----------------------------------------------------------------------

SITE_NAMES = ["s0", "s1", "s2"]


@st.composite
def batched_traces(draw):
    count = draw(st.integers(1, 8))
    records = []
    pending = []
    for index in range(count):
        sites = tuple(
            draw(
                st.lists(
                    st.sampled_from(SITE_NAMES),
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
def global_workloads(draw):
    count = draw(st.integers(2, 6))
    programs = []
    for index in range(count):
        sites = draw(
            st.lists(
                st.sampled_from(SITE_NAMES),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        accesses = [
            (
                site,
                draw(st.sampled_from("rw")),
                draw(st.sampled_from("abc")),
            )
            for site in sites
            for _ in range(draw(st.integers(1, 2)))
        ]
        programs.append(GlobalProgram.build(f"G{index}", accesses))
    return programs


class TestScheme4Properties:
    @given(trace=batched_traces(), batch_size=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_random_batched_traces_serializable(self, trace, batch_size):
        """Any arrival order, any batch size: ser(S) serializable, no
        aborts, every transaction planned and drained."""
        result = drive(Scheme4(batch_size=batch_size), trace)
        assert result.ser_schedule.is_serializable()
        assert result.aborted == ()

    @given(workload=global_workloads(), batch_size=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_random_batched_workloads_verify(self, workload, batch_size):
        """End-to-end through real local DBMSs: the committed global
        schedule must be admissible under the ground-truth verifier."""
        sites = {
            name: LocalDBMS(name, make_protocol("strict-2pl"))
            for name in SITE_NAMES
        }
        gtm = GTMSystem(sites, Scheme4(batch_size=batch_size))
        for program in workload:
            gtm.submit_global(program)
        gtm.run()
        gtm.verify_serializable()
        assert gtm.ser_schedule.is_serializable()
