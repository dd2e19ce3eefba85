"""Layering of ``MDBSSimulator`` and its components, checked on the AST
(the offline stand-in for ruff's ``SLF001``):

- in the kernel and the four component modules every ``._name`` access
  is on ``self`` — no module reads another object's private state;
- a component does not import the kernel;
- nothing under ``src/repro`` outside ``mdbs/`` reads a private
  attribute of a simulator;
- one module knows how a message travels: only ``mdbs/server.py`` (the
  message plane) draws a message fate, and the commit layer —
  ``commit/`` and the commit driver — never sees a message delay;
- inside that module one method sends: ``MessagePlane.send`` is the only
  reader of ``message_delay`` and the only scheduler of a message (the
  retry timer in ``ResilientServer._exchange`` is not a message), and
  the few other reads under ``src/repro`` are named exceptions;
- one function assembles a run: ``build_simulator`` is the only caller of
  ``MDBSSimulator(…)`` under ``src/repro``;
- one path runs and judges a job: ``run_shard`` is the only caller of
  ``build_simulator``, and the ground-truth checks are called only by
  ``transport/base.py`` and the simulator's report methods;
- one class is GTM1's side of QUEUE: ``Fin(…)`` is built only in the
  ``GTM1`` method that asks ``ack_completes``, and only ``GTM1`` enqueues
  an operation other than a server's ``Ack(…)`` or purges a transaction
  (``Engine.abort_transaction``, GTM2's own abort, purges too);
- the runtime ships what a run calls: every definition under
  ``src/repro`` is referenced from another place under ``src/repro``, or
  is named in ``OUTSIDE_CALLERS`` with the code outside it that calls it
  (test-only oracles and helpers live under ``tests/``);
- nothing under ``src/repro`` imports ``tests``;
- the runtime's layers probe no collaborator by name: a hook a caller
  may need is declared, with its default, on the collaborator's base
  class (``ConservativeScheme``, ``LocalScheduler``, ``Init``/``Fin``);
- a scheduler a run can name has no constructor option that only tests
  set: each one is named in ``CONSTRUCTOR_OPTIONS`` with its setter, and
  an unsound variant is a subclass in ``tests/support.py``.
"""

import ast
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
COMPONENTS = ("watchdog", "fault_scheduler", "commit_driver", "router")
#: constructors and builders whose result is a simulator, and the names
#: the tree gives one by convention
SIMULATOR_SOURCES = {"MDBSSimulator", "GTMSystem", "build_simulator"}
SIMULATOR_NAMES = {"simulator", "sim", "gtm", "system"}


def private_accesses(tree):
    """``(line, owner expression, attribute)`` of every ``x._name``."""
    return [
        (node.lineno, ast.unparse(node.value), node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


def called(node):
    """The name a call node calls (``f(…)`` or ``….f(…)``), else None."""
    if not isinstance(node, ast.Call):
        return None
    callee = node.func
    return callee.attr if isinstance(callee, ast.Attribute) else getattr(
        callee, "id", None
    )


def simulator_names(tree):
    """Names bound from a simulator constructor or builder, beside the
    conventional ones."""
    names = set(SIMULATOR_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and called(node.value) in SIMULATOR_SOURCES:
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return names


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", ("simulator",) + COMPONENTS)
def test_private_state_is_read_through_self_only(module):
    reaches = [
        access
        for access in private_accesses(parse(SRC / "mdbs" / f"{module}.py"))
        if access[1] != "self"
    ]
    assert reaches == []


@pytest.mark.parametrize("module", COMPONENTS)
def test_components_do_not_import_the_kernel(module):
    imported = set()
    for node in ast.walk(parse(SRC / "mdbs" / f"{module}.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not {name for name in imported if name.startswith("repro.mdbs.simulator")}
    # ...nor through the package façade, which imports the kernel
    assert "repro.mdbs" not in imported


def test_nothing_outside_mdbs_reads_a_simulators_private_state():
    reaches = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "mdbs":
            continue
        tree = parse(path)
        names = simulator_names(tree)
        reaches += [
            (str(path.relative_to(SRC)),) + access
            for access in private_accesses(tree)
            if access[1] in names
        ]
    assert reaches == []


def test_the_walk_sees_the_reach_it_exists_to_catch():
    tree = ast.parse(
        "simulator = build_simulator(job)\n"
        "run = MDBSSimulator(sites, scheme)\n"
        "admitted = set(simulator._programs) | set(run._logical_programs)\n"
        "mine = self._programs\n"
    )
    assert simulator_names(tree) >= {"simulator", "run"}
    assert [
        (owner, attr)
        for _, owner, attr in private_accesses(tree)
        if owner in simulator_names(tree)
    ] == [("simulator", "_programs"), ("run", "_logical_programs")]


def fate_draws(tree):
    """Lines of every ``….message_fate(…)`` / ``message_fate(…)`` call."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "message_fate"
        in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def delay_reads(tree):
    """Lines naming ``message_delay``: attribute, variable, parameter or
    keyword argument."""
    return [
        getattr(node, "lineno", None)
        for node in ast.walk(tree)
        if "message_delay"
        in (
            getattr(node, "attr", None) if isinstance(node, ast.Attribute) else None,
            getattr(node, "id", None) if isinstance(node, ast.Name) else None,
            node.arg if isinstance(node, (ast.arg, ast.keyword)) else None,
        )
    ]


def test_only_the_message_plane_draws_message_fates():
    draws = [
        (str(path.relative_to(SRC)), line)
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "mdbs" / "server.py"
        for line in fate_draws(parse(path))
    ]
    assert draws == []


def test_the_commit_layer_never_sees_a_message_delay():
    commit_layer = sorted((SRC / "commit").rglob("*.py")) + [
        SRC / "mdbs" / "commit_driver.py"
    ]
    reads = [
        (str(path.relative_to(SRC)), line)
        for path in commit_layer
        for line in delay_reads(parse(path))
    ]
    assert reads == []


def test_the_message_walks_see_a_hand_written_leg():
    tree = ast.parse(
        "def leg(self, fate, message_delay=1.0):\n"
        "    for extra in self.injector.message_fate(site):\n"
        "        self.loop.schedule(self.message_delay + extra, act)\n"
        "    schedule(message_delay=delay)\n"
    )
    assert fate_draws(tree) == [2]
    assert sorted(delay_reads(tree)) == [1, 3, 4]


def owners(tree, hit):
    """``Class.method`` (or top-level function) enclosing each node that
    *hit* accepts; nested functions count as their enclosing method."""
    found = []

    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner, nested = scope, in_function
            if not in_function and isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = scope + (child.name,)
                nested = not isinstance(child, ast.ClassDef)
            if hit(child):
                found.append(".".join(inner))
            walk(child, inner, nested)

    walk(tree, (), False)
    return sorted(found)


def reads_message_delay(node):
    return isinstance(getattr(node, "ctx", None), ast.Load) and "message_delay" in (
        getattr(node, "attr", None),
        getattr(node, "id", None),
    )


def calls_schedule(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "schedule"


def test_one_method_of_the_server_module_sends():
    tree = parse(SRC / "mdbs" / "server.py")
    assert owners(tree, reads_message_delay) == ["MessagePlane.send"]
    assert owners(tree, calls_schedule) == [
        "MessagePlane.send",
        # the ack timeout: a timer, not a message
        "ResilientServer._exchange",
    ]


def test_every_other_message_delay_read_is_a_named_exception():
    reads = [
        (str(path.relative_to(SRC)), owner)
        for path in sorted(SRC.rglob("*.py"))
        for owner in owners(parse(path), reads_message_delay)
    ]
    assert sorted(reads) == [
        # the orphan sweep's grace period
        ("mdbs/fault_scheduler.py", "FaultScheduler.__init__"),
        # a snapshot read's cost; moving it to send would change event
        # counts and replicated chaos fates
        ("mdbs/router.py", "ReplicaRouter.run_snapshot"),
        ("mdbs/server.py", "MessagePlane.send"),
        ("mdbs/simulator.py", "SimulationConfig.validate"),
    ]


def test_the_owner_walk_names_methods_not_their_closures():
    tree = ast.parse(
        "class Link:\n"
        "    message_delay: float = 1.0\n"
        "    def submit(self, message_delay=1.0):\n"
        "        def deliver():\n"
        "            self.loop.schedule(self.message_delay, act)\n"
        "        schedule(message_delay=2.0)\n"
        "def leg(latencies):\n"
        "    return latencies.message_delay\n"
    )
    assert owners(tree, reads_message_delay) == ["Link.submit", "leg"]
    assert owners(tree, calls_schedule) == ["Link.submit"]


def test_build_simulator_is_the_only_run_assembly():
    constructions = [
        (str(path.relative_to(SRC)), owner)
        for path in sorted(SRC.rglob("*.py"))
        for owner in owners(
            parse(path), lambda node: called(node) == "MDBSSimulator"
        )
    ]
    # ``repro simulate`` runs a job too: a job's scheme is any name
    # ``make_scheme`` resolves, baselines included
    assert constructions == [("transport/base.py", "build_simulator")]


def test_the_construction_walk_sees_a_hand_assembly():
    tree = ast.parse(
        "def build(job):\n"
        "    return repro.mdbs.MDBSSimulator(sites, scheme, injector=injector)\n"
        "class Storm:\n"
        "    def run(self):\n"
        "        self.sim = MDBSSimulator(sites, scheme)\n"
    )
    assert owners(tree, lambda node: called(node) == "MDBSSimulator") == [
        "Storm.run",
        "build",
    ]


#: the checks that judge a finished run (``verification.py`` composes
#: them among themselves)
JUDGES = {"verify", "check_atomicity", "check_replicas", "check_decision_uniqueness"}


def builds_a_simulator(node):
    return called(node) == "build_simulator"


def judges_a_run(node):
    return called(node) in JUDGES


def test_transport_run_is_the_only_path_that_runs_and_judges_a_job():
    builds, judges = [], []
    for path in sorted(SRC.rglob("*.py")):
        name, tree = str(path.relative_to(SRC)), parse(path)
        builds += [(name, owner) for owner in owners(tree, builds_a_simulator)]
        if name != "mdbs/verification.py":
            judges += [(name, owner) for owner in owners(tree, judges_a_run)]
    assert builds == [("transport/base.py", "run_shard")]
    assert judges == [
        ("mdbs/simulator.py", "MDBSSimulator.atomicity_report"),
        ("mdbs/simulator.py", "MDBSSimulator.decision_uniqueness_report"),
        ("mdbs/simulator.py", "MDBSSimulator.replicas_report"),
        ("transport/base.py", "merge_outcomes"),
    ]


def test_the_judge_walk_sees_a_second_verdict():
    tree = ast.parse(
        "def run_chaos(options, seed):\n"
        "    simulator = build_simulator(chaos_job(options, seed))\n"
        "    simulator.run()\n"
        "    schedule = simulator.global_schedule()\n"
        "    return verify(schedule), repro.mdbs.check_atomicity(schedule, ())\n"
    )
    assert owners(tree, builds_a_simulator) == ["run_chaos"]
    assert owners(tree, judges_a_run) == ["run_chaos", "run_chaos"]


def builds_a_fin(node):
    return called(node) == "Fin"


def applies_the_fin_rule(node):
    return called(node) == "ack_completes"


def test_fin_is_built_only_where_the_fin_rule_is_applied():
    builds, rules = [], []
    for path in sorted(SRC.rglob("*.py")):
        name, tree = str(path.relative_to(SRC)), parse(path)
        builds += [(name, owner) for owner in owners(tree, builds_a_fin)]
        rules += [(name, owner) for owner in owners(tree, applies_the_fin_rule)]
    assert builds == [("core/gtm.py", "GTM1._on_ack")]
    assert rules == builds


def test_the_fin_walk_sees_a_hand_written_rule():
    tree = ast.parse(
        "def on_ack(operation):\n"
        "    remaining.discard(operation.site)\n"
        "    if not remaining:\n"
        "        engine.enqueue(events.Fin(operation.transaction_id))\n"
    )
    assert owners(tree, builds_a_fin) == ["on_ack"]
    assert owners(tree, applies_the_fin_rule) == []


def enqueues_for_gtm1(node):
    """An ``enqueue`` of anything but an ``Ack(…)`` built in place: an
    init, a ser request or a fin, which only GTM1 inserts."""
    return called(node) == "enqueue" and not (
        node.args and called(node.args[0]) == "Ack"
    )


def purges(node):
    return called(node) == "purge_transaction"


def test_only_gtm1_inserts_into_queue_and_purges():
    inserts, purgers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        name, tree = str(path.relative_to(SRC)), parse(path)
        inserts.update((name, owner) for owner in owners(tree, enqueues_for_gtm1))
        purgers.update((name, owner) for owner in owners(tree, purges))
    assert inserts == {
        ("core/gtm.py", "GTM1._on_ack"),
        ("core/gtm.py", "GTM1.insert"),
    }
    assert purgers == {
        ("core/engine.py", "Engine.abort_transaction"),
        ("core/gtm.py", "GTM1.purge"),
    }


def test_the_queue_walk_sees_a_hand_written_driver():
    tree = ast.parse(
        "def start(incarnation, sites):\n"
        "    engine.enqueue(events.Init(incarnation, sites=sites))\n"
        "    engine.run()\n"
        "def on_completion(operation):\n"
        "    engine.enqueue(Ack(operation.transaction_id, site=operation.site))\n"
        "def give_up(incarnation):\n"
        "    engine.purge_transaction(incarnation)\n"
        "    engine.run()\n"
    )
    assert owners(tree, enqueues_for_gtm1) == ["start"]
    assert owners(tree, purges) == ["give_up"]


#: ``src/repro`` definitions that no ``src/repro`` code references, each
#: with the outside code that calls it.  An oracle or helper only tests
#: call belongs under ``tests/``, not here.
OUTSIDE_CALLERS = {
    "exceptions.py::DeadlockError": "repro.__all__",
    "core/metrics.py::SchemeMetrics.total_processed": (
        "perf/workloads.py, perf/measure.py"
    ),
    "lmdbs/storage.py::VersionedStore.committed_value": (
        "examples/quickstart.py, examples/travel_booking.py"
    ),
    "mdbs/simulator.py::MDBSSimulator.transaction_stats": (
        "benchmarks/test_bench_replication.py"
    ),
    "mdbs/simulator.py::MDBSSimulator.verify_serializable": (
        "examples/quickstart.py, examples/travel_booking.py"
    ),
    "mdbs/verification.py::assert_verified": (
        "examples/banking_transfers.py, benchmarks/test_bench_dav_sweep.py"
    ),
    "observability/registry.py::MetricsRegistry.from_snapshot": (
        "perf/shims.py (a timing-shim target)"
    ),
    "observability/registry.py::parse_prometheus": (
        "the chaos-smoke and parallel-smoke CI jobs read their metrics dumps"
    ),
    # inspection accessors the oracles in tests/reference/ read
    "core/tsgd.py::TSGD.transactions_at": "tests/reference/eliminate_cycles.py",
    "core/tsgd.py::TSGD.has_dependency": "tests/reference/eliminate_cycles.py",
    "core/tsgd.py::TSGD.incoming_dependencies": "tests/reference/scheme2_scan.py",
    "schedules/global_schedule.py::GlobalSchedule.is_globally_serializable": (
        "tests/reference/theorems.py"
    ),
    "schedules/global_schedule.py::GlobalSchedule.are_locals_serializable": (
        "tests/reference/theorems.py"
    ),
    "schedules/model.py::Schedule.precedes": (
        "tests/reference/serialization_functions.py"
    ),
    "schedules/serialization_graph.py::DirectedGraph.nodes": (
        "tests/reference/ser_all_pairs.py, tests/reference/theorems.py"
    ),
    "schedules/serialization_graph.py::DirectedGraph.reachable_from": (
        "tests/reference/ser_all_pairs.py, tests/reference/theorems.py"
    ),
}


def definitions(tree):
    """``(qualified name, node)`` of each module-level function and class
    and of each public method such a class defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not child.name.startswith("_"):
                    yield f"{node.name}.{child.name}", child


def references(tree):
    """``(name, line)`` of every ``Name``, every ``Attribute`` and every
    identifier-shaped string constant (``getattr`` targets, report
    fields), except the strings of an ``__all__`` list.  An import is not
    a reference: a re-export calls nothing."""
    exports = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for inner in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exports
        ):
            yield node.value, node.lineno


def uncalled(trees):
    """``path::qualname`` of each definition in *trees* (path → module
    AST) whose name is referenced nowhere outside its own body; dunder
    names are exempt."""
    sites = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            sites.setdefault(name, []).append((path, line))
    found = []
    for path, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in sites.get(name, ())
            ):
                found.append(f"{path}::{qualname}")
    return sorted(found)


def test_every_src_definition_has_a_caller():
    trees = {
        str(path.relative_to(SRC)): parse(path) for path in sorted(SRC.rglob("*.py"))
    }
    assert uncalled(trees) == sorted(OUTSIDE_CALLERS)


def test_the_caller_walk_sees_a_test_only_definition():
    trees = {
        "graph.py": ast.parse(
            "__all__ = ['orders', 'Graph']\n"
            "class Graph:\n"
            "    def order(self):\n"
            "        return self.order()\n"
            "    def hints(self):\n"
            "        return ()\n"
            "    def _helper(self):\n"
            "        return ()\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "def orders(graph):\n"
            "    return [graph]\n"
        ),
        "engine.py": ast.parse(
            "from graph import Graph, orders\n"
            "def run():\n"
            "    return getattr(Graph(), 'hints')()\n"
        ),
    }
    # ``order`` calls only itself, and the import and ``__all__`` name
    # ``orders`` without calling it; ``hints`` is reached by its string
    assert uncalled(trees) == [
        "engine.py::run",
        "graph.py::Graph.order",
        "graph.py::orders",
    ]


def imports_of_tests(tree):
    """Lines of every ``import tests…`` / ``from tests… import …``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "tests" for alias in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and not node.level
            and (node.module or "").split(".")[0] == "tests"
        )
    ]


def test_nothing_under_src_imports_tests():
    imports = [
        (str(path.relative_to(SRC)), line)
        for path in sorted(SRC.rglob("*.py"))
        for line in imports_of_tests(parse(path))
    ]
    assert imports == []


def test_the_import_walk_sees_an_import_of_tests():
    tree = ast.parse(
        "import tests.reference.theorems\n"
        "from tests.support import parse_schedule\n"
        "from tests import support\n"
        "import testsuite\n"
        "from .tests import helper\n"
        "def check():\n"
        "    from tests.reference import serializability\n"
    )
    assert imports_of_tests(tree) == [1, 2, 3, 7]


#: the layers whose collaborators talk through declared hooks (the
#: runtime, and the bench that reads its counters)
DECLARED_LAYERS = (
    "core", "mdbs", "lmdbs", "workloads", "baselines", "transport", "analysis"
)


def name_probes(tree):
    """``(line, attribute)`` of every ``getattr(x, "<literal>", default)``
    and ``hasattr(x, "<literal>")``: an attribute asked for by name
    instead of declared on the class of ``x``."""
    probes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        arity = {"getattr": 3, "hasattr": 2}.get(node.func.id)
        if (
            len(node.args) == arity
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            probes.append((node.lineno, node.args[1].value))
    return sorted(probes)


def test_no_layer_probes_a_collaborator_by_name():
    probes = [
        (str(path.relative_to(SRC)),) + probe
        for layer in DECLARED_LAYERS
        for path in sorted((SRC / layer).rglob("*.py"))
        for probe in name_probes(parse(path))
    ]
    assert probes == []


def test_the_probe_walk_sees_a_probe():
    tree = ast.parse(
        "hinter = getattr(scheme, 'wake_hints', None)\n"
        "if hasattr(protocol, 'waits_for_edges'):\n"
        "    site = operation.site\n"
        "handler = getattr(self, name, None)\n"
        "plain = getattr(scheme, 'metrics')\n"
    )
    assert name_probes(tree) == [(1, "wake_hints"), (2, "waits_for_edges")]


#: constructor parameters of the schedulers ``make_scheme`` and
#: ``make_protocol`` build, each with the code that sets it
CONSTRUCTOR_OPTIONS = {
    "Scheme2Minimal.max_candidates": "repro.analysis.bench (E6c sets 14)",
    "Scheme4.batch_size": (
        "the planner tests in tests/test_schemes.py (ROADMAP item 13)"
    ),
    "PreventionTwoPhaseLocking.policy": "the PROTOCOLS registry's lambdas",
}


def constructor_options(classes):
    """``Class.parameter`` of every constructor parameter of *classes*."""
    return sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name in inspect.signature(cls).parameters
    )


def test_every_scheduler_option_names_its_setter():
    from repro.baselines import BASELINES
    from repro.core import SCHEMES, make_scheme
    from repro.lmdbs import PROTOCOLS, make_protocol

    classes = {type(make_scheme(name)) for name in [*SCHEMES, *BASELINES]}
    classes |= {type(make_protocol(name)) for name in PROTOCOLS}
    assert constructor_options(classes) == sorted(CONSTRUCTOR_OPTIONS)


def test_the_option_walk_sees_a_switch():
    class Marked:
        def __init__(self, marking: bool = True) -> None:
            self.marking = marking

    class Plain:
        def __init__(self) -> None:
            pass

    assert constructor_options({Marked, Plain}) == ["Marked.marking"]
