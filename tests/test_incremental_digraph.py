"""Randomized checks of IncrementalDigraph's contract against DirectedGraph.

An IncrementalDigraph only ever holds an acyclic edge set: ``add_edge``
inserts the edge and returns ``None``, or returns a witness cycle and
leaves the graph exactly as it was.  The reference is a plain
DirectedGraph that follows the same contract by brute force — it inserts
an edge only when the target does not reach the source — so across long
random insert/delete scripts the two must agree on every report, every
edge and every node, and the maintained order must be a topological
order.  A refused insert must leave no trace in the graph's state: that
is what keeps the SGT scheduler's and Scheme 4's decisions identical to
a search over a graph that never saw the refused edge.
"""

import random

from repro.schedules.incremental_digraph import IncrementalDigraph
from repro.schedules.serialization_graph import DirectedGraph


def _assert_cycle_valid(graph, cycle, refused=None):
    """A witness cycle must be a real cycle of *graph* plus the *refused*
    edge: each node has an edge to the next, the last closing back to
    the first."""
    assert len(cycle) >= 1
    for position, node in enumerate(cycle):
        successor = cycle[(position + 1) % len(cycle)]
        assert (node, successor) == refused or graph.has_edge(
            node, successor
        ), f"witness {cycle!r} broken at {node!r} -> {successor!r}"


def _assert_topo_valid(graph, order):
    position = {node: index for index, node in enumerate(order)}
    assert sorted(position) == sorted(graph.nodes)
    for source, target in graph.edges:
        assert position[source] < position[target], (
            f"edge {source!r}->{target!r} violates order {order!r}"
        )


def _state(graph):
    """Everything a refused insert must leave untouched, iteration
    orders included (they decide which cycle a later search reports)."""
    return (
        [(node, list(edges)) for node, edges in graph._successors.items()],
        [(node, list(edges)) for node, edges in graph._predecessors.items()],
        list(graph._index.items()),
    )


def _assert_agree(incremental, reference):
    assert sorted(incremental.nodes) == sorted(reference.nodes)
    assert sorted(incremental.edges) == sorted(reference.edges)
    assert reference.is_acyclic() and incremental.is_acyclic()
    order = incremental.topological_order()
    assert order == tuple(
        sorted(incremental.nodes, key=incremental._index.__getitem__)
    )
    _assert_topo_valid(incremental, order)


def _reachable(graph, origin, goal):
    """Whether *goal* is reachable from *origin* over zero or more edges."""
    return origin == goal or goal in graph.reachable_from(origin)


def _random_script(rng, nodes, length):
    """An edge insert/delete/node-remove script over a small node pool
    (small enough that refusals happen and stop happening repeatedly)."""
    script = []
    for _ in range(length):
        roll = rng.random()
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        if roll < 0.62:
            script.append(("add", u, v))
        elif roll < 0.9:
            script.append(("del", u, v))
        else:
            script.append(("rmnode", u))
    return script


def _apply(script, check_every):
    incremental = IncrementalDigraph()
    reference = DirectedGraph()
    for step, op in enumerate(script):
        if op[0] == "add":
            _, source, target = op
            before = _state(incremental)
            witness = incremental.add_edge(source, target)
            # the report is exact: a witness iff the target reaches the
            # source, and the witness is a cycle of what the graph holds
            # plus the refused edge
            refused = _reachable(reference, target, source)
            assert (witness is not None) == refused, (
                f"inexact add_edge report for {op!r}"
            )
            if refused:
                _assert_cycle_valid(reference, witness, (source, target))
                assert _state(incremental) == before, (
                    f"refused {op!r} left a trace"
                )
            else:
                reference.add_edge(source, target)
        elif op[0] == "del":
            incremental.remove_edge(op[1], op[2])
            reference.remove_edge(op[1], op[2])
        else:
            incremental.remove_node(op[1])
            reference.remove_node(op[1])
        if step % check_every == 0:
            _assert_agree(incremental, reference)
    _assert_agree(incremental, reference)


def test_randomized_equivalence_1k_scripts():
    """1000+ random scripts: small dense pools (refusal churn) and larger
    sparse pools (order maintenance)."""
    for trial in range(1000):
        rng = random.Random(trial)
        pool = [f"n{i}" for i in range(rng.randint(2, 8))]
        _apply(_random_script(rng, pool, rng.randint(5, 40)), check_every=7)


def test_randomized_equivalence_larger_graphs():
    for trial in range(60):
        rng = random.Random(10_000 + trial)
        pool = [f"n{i}" for i in range(rng.randint(20, 40))]
        _apply(_random_script(rng, pool, 120), check_every=17)


def test_add_edge_reports_acyclic_and_cycle():
    graph = IncrementalDigraph()
    assert graph.add_edge("a", "b") is None
    assert graph.add_edge("b", "c") is None
    witness = graph.add_edge("c", "a")
    assert witness is not None
    assert set(witness) == {"a", "b", "c"}
    _assert_cycle_valid(graph, witness, ("c", "a"))
    assert not graph.has_edge("c", "a")
    assert graph.is_acyclic()


def test_self_loop_is_a_cycle():
    graph = IncrementalDigraph()
    assert graph.add_edge("a", "a") == ("a",)
    assert "a" not in graph and graph.edges == ()
    graph.add_node("a")
    before = _state(graph)
    assert graph.add_edge("a", "a") == ("a",)
    assert _state(graph) == before


def test_removal_heals_cycles_lazily():
    """A refused edge inserts cleanly once a removal breaks the path that
    refused it."""
    graph = IncrementalDigraph()
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    assert graph.add_edge("c", "a") is not None
    graph.remove_edge("b", "c")
    assert graph.add_edge("c", "a") is None
    assert graph.has_edge("c", "a")
    _assert_topo_valid(graph, graph.topological_order())
    # now b -> c is the edge that would close a -> b ... c -> a
    assert graph.add_edge("b", "c") is not None


def test_add_edge_sees_cycles_through_broken_edges():
    """After a refusal, every later insert reports what a graph that
    never saw the refused edge reports, and leaves the same state."""
    graph = IncrementalDigraph()
    twin = IncrementalDigraph()
    for subject in (graph, twin):
        subject.add_edge("a", "b")
        subject.add_edge("b", "c")
    assert graph.add_edge("c", "a") is not None
    for source, target in [
        ("a", "c"), ("a", "b"), ("c", "d"), ("d", "a"), ("c", "a"),
        ("d", "b"), ("x", "a"), ("c", "x"),
    ]:
        assert graph.add_edge(source, target) == twin.add_edge(
            source, target
        ), (source, target)
        assert _state(graph) == _state(twin)


def test_remove_node_compacts_index_space():
    graph = IncrementalDigraph()
    for i in range(500):
        graph.add_edge(f"n{i}", f"n{i + 1}")
    for i in range(480):
        graph.remove_node(f"n{i}")
    assert graph._next_index <= 2 * len(graph) + 64
    _assert_topo_valid(graph, graph.topological_order())


def test_find_cycle_from_start_matches_directed_graph_semantics():
    """``find_cycle`` is DirectedGraph's own: on the accepted edges it
    answers as a DirectedGraph holding them does, from every start."""
    graph = IncrementalDigraph()
    reference = DirectedGraph()
    for source, target in [
        ("a", "b"), ("b", "c"), ("c", "b"), ("x", "y"),
    ]:
        witness = graph.add_edge(source, target)
        if witness is None:
            reference.add_edge(source, target)
        else:
            assert (source, target) == ("c", "b")
            _assert_cycle_valid(reference, witness, (source, target))
    assert sorted(graph.edges) == sorted(reference.edges)
    for start in (None, "a", "b", "x"):
        assert graph.find_cycle(start=start) is None
        assert reference.find_cycle(start=start) is None


def test_topological_order_respects_all_edges_incrementally():
    rng = random.Random(42)
    graph = IncrementalDigraph()
    edges = []
    # build a random DAG by only adding forward edges of a hidden order
    hidden = [f"v{i}" for i in range(30)]
    for _ in range(200):
        i, j = sorted(rng.sample(range(30), 2))
        graph.add_edge(hidden[i], hidden[j])
        edges.append((hidden[i], hidden[j]))
        _assert_topo_valid(graph, graph.topological_order())


def test_repr_names_the_class():
    graph = IncrementalDigraph()
    graph.add_edge("a", "b")
    assert repr(graph) == "<IncrementalDigraph nodes=2 edges=1>"
    assert repr(DirectedGraph()) == "<DirectedGraph nodes=0 edges=0>"
