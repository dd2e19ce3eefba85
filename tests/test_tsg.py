"""Tests for the transaction-site graph (Scheme 1's data structure)."""

import pytest

from repro.core.tsg import TransactionSiteGraph
from repro.exceptions import SchedulerError


def has_any_cycle(tsg):
    """Whether the TSG, as an undirected graph, holds any cycle: every
    cycle of a bipartite graph passes through a transaction and two of
    its sites, so some transaction has a cycle site."""
    return any(tsg.cycle_sites(txn) for txn in tsg.transactions)


class TestStructure:
    def test_insert_and_remove(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        assert tsg.sites_of("G1") == {"s1", "s2"}
        assert [t for t in tsg.transactions if "s1" in tsg.sites_of(t)] == ["G1"]
        tsg.remove_transaction("G1")
        assert not tsg.has_transaction("G1")
        assert tsg.sites == ()

    def test_double_insert_rejected(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1"])
        with pytest.raises(SchedulerError):
            tsg.insert_transaction("G1", ["s1"])

    def test_remove_unknown_rejected(self):
        with pytest.raises(SchedulerError):
            TransactionSiteGraph().remove_transaction("G1")

    def test_counts(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s2"])
        assert len(tsg.transactions) + len(tsg.sites) == 4  # 2 txns + 2 sites
        assert tsg.edge_count == 3


class TestCycleSites:
    def test_no_cycle_in_tree(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s2", "s3"])
        assert tsg.cycle_sites("G2") == frozenset()

    def test_two_transactions_sharing_two_sites(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s1", "s2"])
        assert tsg.cycle_sites("G2") == {"s1", "s2"}

    def test_cycle_through_chain(self):
        # G1: s1-s2, G2: s2-s3 — G3 joining s1 and s3 closes a cycle
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s2", "s3"])
        tsg.insert_transaction("G3", ["s1", "s3"])
        assert tsg.cycle_sites("G3") == {"s1", "s3"}

    def test_partial_cycle_marks_only_involved_sites(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s1", "s2", "s3"])
        # s3 hangs off the cycle; only s1, s2 edges are cyclic
        assert tsg.cycle_sites("G2") == {"s1", "s2"}

    def test_single_site_transaction_never_cyclic(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1"])
        tsg.insert_transaction("G2", ["s1"])
        assert tsg.cycle_sites("G2") == frozenset()

    def test_cycle_detection_after_removal(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s1", "s2"])
        tsg.remove_transaction("G1")
        tsg.insert_transaction("G3", ["s1", "s2"])
        assert tsg.cycle_sites("G3") == {"s1", "s2"}

    def test_unknown_transaction_rejected(self):
        with pytest.raises(SchedulerError):
            TransactionSiteGraph().cycle_sites("G1")


class TestHasAnyCycle:
    def test_forest_has_no_cycle(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s2", "s3"])
        assert not has_any_cycle(tsg)

    def test_shared_pair_is_cycle(self):
        tsg = TransactionSiteGraph()
        tsg.insert_transaction("G1", ["s1", "s2"])
        tsg.insert_transaction("G2", ["s1", "s2"])
        assert has_any_cycle(tsg)

    def test_empty_graph(self):
        assert not has_any_cycle(TransactionSiteGraph())
