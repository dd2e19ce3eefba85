"""Tests for the directed-graph machinery and serialization graphs."""

import pytest

from repro.exceptions import NonSerializableError
from repro.schedules.serialization_graph import (
    DirectedGraph,
    serialization_graph,
    union_graph,
)
from tests.reference.serializability import all_topological_orders
from tests.support import parse_schedule


class TestDirectedGraph:
    def test_add_and_query(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")
        assert graph.successors("a") == ("b",)
        assert graph.predecessors("b") == ("a",)

    def test_remove_node_cleans_edges(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.remove_node("b")
        assert not graph.has_node("b")
        assert graph.successors("a") == ()
        assert graph.predecessors("c") == ()

    def test_remove_missing_node_is_noop(self):
        graph = DirectedGraph()
        graph.remove_node("ghost")
        assert len(graph) == 0

    def test_remove_edge(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_node("a") and graph.has_node("b")

    def test_find_cycle_none_in_dag(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("a", "c")
        assert graph.find_cycle() is None
        assert graph.is_acyclic()

    def test_find_cycle_reports_members(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        cycle = graph.find_cycle()
        assert set(cycle) == {"a", "b", "c"}

    def test_self_loop_is_cycle(self):
        graph = DirectedGraph()
        graph.add_edge("a", "a")
        assert graph.find_cycle() == ("a",)

    def test_find_cycle_from_start_only(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        graph.add_node("z")
        assert graph.find_cycle(start="z") is None
        assert graph.find_cycle(start="a") is not None

    def test_topological_order(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_order_raises_on_cycle(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        with pytest.raises(NonSerializableError):
            graph.topological_order()

    def test_all_topological_orders(self):
        graph = DirectedGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_node("c")
        assert len(all_topological_orders(graph)) == 6
        graph.add_edge("a", "b")
        assert len(all_topological_orders(graph)) == 3

    def test_reachable_from(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_node("d")
        assert graph.reachable_from("a") == {"b", "c"}
        assert graph.reachable_from("d") == set()

    def test_copy_is_independent(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        duplicate = graph.copy()
        duplicate.add_edge("b", "a")
        assert graph.is_acyclic()
        assert not duplicate.is_acyclic()


class TestSerializationGraph:
    def test_edges_from_conflicts(self):
        graph = serialization_graph(parse_schedule("r1[x] w2[x] w1[y] r3[y]"))
        assert graph.has_edge("1", "2")
        assert graph.has_edge("1", "3")
        assert not graph.has_edge("2", "3")

    def test_all_transactions_are_nodes(self):
        graph = serialization_graph(parse_schedule("r1[x] r2[y] r3[z]"))
        assert set(graph.nodes) == {"1", "2", "3"}
        assert graph.edges == ()

    def test_union_graph_combines(self):
        first = serialization_graph(parse_schedule("r1[x] w2[x]"))
        second = serialization_graph(parse_schedule("r2[y] w1[y]"))
        union = union_graph([first, second])
        assert union.has_edge("1", "2")
        assert union.has_edge("2", "1")
        assert not union.is_acyclic()
