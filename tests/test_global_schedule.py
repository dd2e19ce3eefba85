"""Tests for global schedules and the ser(S) reduction (Theorems 1–2)."""

import pytest

from repro.exceptions import ScheduleError
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from tests.reference.theorems import ser_projection, theorem1_holds
from tests.support import parse_schedule


def make_global(local_texts, global_ids=("G1", "G2")):
    return GlobalSchedule(
        {
            site: parse_schedule(text, site=site)
            for site, text in local_texts.items()
        },
        global_transaction_ids=global_ids,
    )


class TestGlobalSchedule:
    def test_site_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            GlobalSchedule({"s1": parse_schedule("rG1[x]", site="s2")})

    def test_sites_and_ids(self):
        gs = make_global({"s1": "rG1[x] wL1[x]", "s2": "rG2[y]"})
        assert set(gs.sites) == {"s1", "s2"}
        transaction_ids = {
            txn for site in gs.sites for txn in gs.local_schedule(site).transaction_ids
        }
        assert transaction_ids - gs.global_transaction_ids == {"L1"}
        assert gs.sites_of("G1") == ("s1",)

    def test_locals_serializable(self):
        gs = make_global({"s1": "rG1[x] wL1[x] rG2[z]"})
        assert gs.are_locals_serializable()

    def test_global_cycle_through_indirect_conflict(self):
        # The paper's motivating scenario: G1 and G2 never conflict
        # directly, but a local transaction at each site closes the cycle.
        gs = make_global(
            {
                "s1": "rG1[a] wL1[a] wL1[b] rG2[b]",
                "s2": "rG2[c] wL2[c] wL2[d] rG1[d]",
            }
        )
        assert gs.are_locals_serializable()
        assert not gs.is_globally_serializable()

    def test_globally_serializable_witness(self):
        gs = make_global({"s1": "rG1[a] wG2[a]", "s2": "rG1[b] wG2[b]"})
        witness = gs.assert_globally_serializable()
        assert witness.index("G1") < witness.index("G2")


class TestSerSchedule:
    def test_conflicts_only_same_site(self):
        a = SerOperation("G1", "s1")
        b = SerOperation("G2", "s1")
        c = SerOperation("G2", "s2")
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)
        assert not a.conflicts_with(SerOperation("G1", "s1"))

    def test_serializable_order(self):
        ser = SerSchedule(
            [
                SerOperation("G1", "s1"),
                SerOperation("G2", "s1"),
                SerOperation("G1", "s2"),
                SerOperation("G2", "s2"),
            ]
        )
        assert ser.is_serializable()
        order = ser.witness_order()
        assert order.index("G1") < order.index("G2")

    def test_cycle_detected(self):
        ser = SerSchedule(
            [
                SerOperation("G1", "s1"),
                SerOperation("G2", "s1"),
                SerOperation("G2", "s2"),
                SerOperation("G1", "s2"),
            ]
        )
        assert not ser.is_serializable()

    def test_single_site_always_serializable(self):
        ser = SerSchedule(
            [SerOperation(f"G{i}", "s1") for i in range(10)]
        )
        assert ser.is_serializable()


class TestSerProjection:
    def test_projection_uses_local_order(self):
        s1 = parse_schedule("bG1 bG2 rG1[x] wG2[x] cG1 cG2", site="s1")
        gs = GlobalSchedule({"s1": s1}, global_transaction_ids=["G1", "G2"])
        images = {
            "s1": {
                "G1": s1.operations[2],  # rG1[x]
                "G2": s1.operations[3],  # wG2[x]
            }
        }
        ser = ser_projection(gs, images)
        assert [op.transaction_id for op in ser] == ["G1", "G2"]

    def test_theorem1_consistency_check(self):
        s1 = parse_schedule("rG1[x] wG2[x]", site="s1")
        gs = GlobalSchedule({"s1": s1}, global_transaction_ids=["G1", "G2"])
        ser = SerSchedule([SerOperation("G1", "s1"), SerOperation("G2", "s1")])
        assert theorem1_holds(gs, ser)
