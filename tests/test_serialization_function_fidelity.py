"""Fidelity tests: the serialization function each local protocol
declares really *is* one for histories that protocol produces (paper
§2.2's defining property, checked on the committed ground-truth histories
of randomized executions), and GTM1's plan flags exactly its image."""

import random

import pytest

from repro.core import GlobalProgram, GTMSystem, make_scheme
from repro.core.gtm import plan_program
from repro.lmdbs import PROTOCOLS, LocalDBMS, make_protocol
from repro.mdbs import simulator as simulator_module
from repro.schedules.model import begin, commit, read, write
from repro.schedules.serialization_graph import serialization_graph
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
    TicketSerializationFunction,
)
from repro.workloads.generator import LocalProgram
from tests.reference.serialization_functions import (
    FirstOperationSerializationFunction,
    image,
    is_valid_for,
)


def run_random_local_workload(protocol_name, seed, clients=6, ops=3):
    """Drive a single LocalDBMS with interleaved client transactions;
    returns the committed history."""
    rng = random.Random(seed)
    db = LocalDBMS("s1", make_protocol(protocol_name))
    items = ["x", "y", "z"]
    programs = {}
    for index in range(clients):
        txn = f"T{index}"
        accesses = [
            (rng.choice("rw"), rng.choice(items)) for _ in range(ops)
        ]
        read_set = frozenset(i for k, i in accesses if k == "r")
        write_set = frozenset(i for k, i in accesses if k == "w")
        operations = [begin(txn, "s1")]
        operations += [
            (read if k == "r" else write)(txn, item, "s1")
            for k, item in accesses
        ]
        operations.append(commit(txn, "s1"))
        programs[txn] = {
            "ops": operations,
            "cursor": 0,
            "read_set": read_set,
            "write_set": write_set,
            "alive": True,
        }
    # random interleaving with retry-free semantics: aborted clients stop
    pending = set()
    for _round in range(clients * (ops + 2) * 4):
        candidates = [
            txn
            for txn, state in programs.items()
            if state["alive"]
            and state["cursor"] < len(state["ops"])
            and txn not in pending
        ]
        if not candidates:
            break
        txn = rng.choice(candidates)
        state = programs[txn]
        operation = state["ops"][state["cursor"]]

        def callback(op, value, aborted, txn=txn):
            if aborted:
                programs[txn]["alive"] = False
            else:
                programs[txn]["cursor"] += 1
            pending.discard(txn)

        db.submit(
            operation,
            callback=callback,
            read_set=state["read_set"],
            write_set=state["write_set"],
        )
        if db.is_blocked(txn):
            pending.add(txn)
    return db.history.committed_schedule()


@pytest.mark.parametrize("seed", range(10))
class TestNativeStrategies:
    def test_commit_image_valid_for_strict_2pl(self, seed):
        history = run_random_local_workload("strict-2pl", seed)
        if history.transaction_ids:
            assert is_valid_for(CommitSerializationFunction(), history)

    def test_begin_image_valid_for_to(self, seed):
        history = run_random_local_workload("to", seed)
        if history.transaction_ids:
            assert is_valid_for(BeginSerializationFunction(), history)

    def test_begin_image_valid_for_conservative_2pl(self, seed):
        history = run_random_local_workload("conservative-2pl", seed)
        if history.transaction_ids:
            assert is_valid_for(BeginSerializationFunction(), history)

    def test_begin_image_valid_for_conservative_to(self, seed):
        history = run_random_local_workload("conservative-to", seed)
        if history.transaction_ids:
            assert is_valid_for(BeginSerializationFunction(), history)

    def test_first_op_image_valid_for_conservative_to(self, seed):
        # the choice the protocol does not declare holds on the same runs
        history = run_random_local_workload("conservative-to", seed)
        if history.transaction_ids:
            assert is_valid_for(FirstOperationSerializationFunction(), history)


@pytest.mark.parametrize("protocol", ["sgt", "occ"])
@pytest.mark.parametrize("seed", range(6))
class TestTicketStrategy:
    def test_ticket_image_valid_on_gtm_histories(self, protocol, seed):
        """At SGT/OCC sites the GTM forces tickets; the ticket-write
        image must order consistently with the local serialization of
        the global subtransactions."""
        rng = random.Random(seed)
        sites = {"s0": LocalDBMS("s0", make_protocol(protocol))}
        gtm = GTMSystem(sites, make_scheme("scheme2"))
        for index in range(5):
            accesses = [
                ("s0", rng.choice("rw"), rng.choice("abc"))
                for _ in range(2)
            ]
            gtm.submit_global(GlobalProgram.build(f"G{index}", accesses))
        gtm.run()
        history = sites["s0"].history.committed_schedule()
        strategy = TicketSerializationFunction()
        # restrict to the global subtransactions (they all took tickets)
        global_ids = [
            t for t in history.transaction_ids if t.startswith("G")
        ]
        projected = history.projection(global_ids)
        if projected.transaction_ids:
            assert is_valid_for(strategy, projected)


class TestStrategyCounterexamples:
    """Negative controls: the *wrong* strategy for a protocol fails on a
    history that protocol can produce — the pairing matters."""

    def test_begin_image_invalid_for_sgt_history(self):
        # SGT admits r1(x) w2(x) c2 r1(y) then T1 serialized before T2
        # although T2 began later?  Construct the reverse: T1 begins
        # first but serializes AFTER T2.
        db = LocalDBMS("s1", make_protocol("sgt"))
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T2", "x", "s1"))
        db.submit(read("T1", "x", "s1"))  # T2 -> T1
        db.submit(commit("T2", "s1"))
        db.submit(commit("T1", "s1"))
        history = db.history.committed_schedule()
        # T2 serialized before T1, but T1's begin precedes T2's begin
        assert not is_valid_for(BeginSerializationFunction(), history)

    def test_commit_image_invalid_for_sgt_history(self):
        # SGT also breaks the commit-order image: T1 serialized before
        # T2 yet commits after it.
        db = LocalDBMS("s1", make_protocol("sgt"))
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(read("T1", "x", "s1"))
        db.submit(write("T2", "x", "s1"))  # T1 -> T2
        db.submit(commit("T2", "s1"))
        db.submit(commit("T1", "s1"))
        history = db.history.committed_schedule()
        assert not is_valid_for(CommitSerializationFunction(), history)


def run_mixed_workload(protocol, scheme_name, seed, monkeypatch):
    """A small GTMSystem run, every site on *protocol*, with local
    transactions beside the globals.  Returns the system and every plan
    GTM1 made, by incarnation."""
    plans = {}

    def recording_plan(program, incarnation, *args, **kwargs):
        plan = plan_program(program, incarnation, *args, **kwargs)
        plans[incarnation] = plan
        return plan

    monkeypatch.setattr(simulator_module, "plan_program", recording_plan)
    rng = random.Random(seed)
    site_names = ["s0", "s1"]
    sites = {
        name: LocalDBMS(name, make_protocol(protocol)) for name in site_names
    }
    gtm = GTMSystem(sites, make_scheme(scheme_name))
    for index in range(5):
        accesses = [
            (site, rng.choice("rw"), rng.choice("ab"))
            for site in rng.sample(site_names, 2)
        ]
        gtm.submit_global(GlobalProgram.build(f"G{index}", accesses))
    for index in range(6):
        accesses = tuple(
            (rng.choice("rw"), rng.choice("ab")) for _ in range(2)
        )
        gtm.submit_local(
            LocalProgram(f"L{index}", rng.choice(site_names), accesses),
            at=rng.choice((0, 0.5)),
        )
    gtm.run()
    return gtm, plans


def flagged_image(plan, site):
    """The operation GTM1 flagged as the site's ``ser_k`` image; at a
    ticket site the flag routes the read, and the image is the write
    after it."""
    site_plan = [p for p in plan if p.operation.site == site]
    index = next(i for i, p in enumerate(site_plan) if p.is_ser_image)
    if site_plan[index].is_ticket_read:
        index += 1
    return site_plan[index].operation


def shape(operation):
    """What an operation is, without its creation index: OCC logs each
    deferred write as a fresh operation when the transaction commits."""
    return (
        operation.op_type,
        operation.transaction_id,
        operation.item,
        operation.site,
    )


@pytest.mark.parametrize("scheme_name", ["scheme0", "scheme1", "scheme2", "scheme3"])
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
class TestPlanImageValidity:
    """GTM1's plan, the declared function's image and §2.2's defining
    property agree on the histories the runtime produces, local
    transactions included."""

    def test_flag_is_image_and_images_follow_local_order(
        self, protocol, scheme_name, monkeypatch
    ):
        checked = 0
        for seed in range(5):
            gtm, plans = run_mixed_workload(
                protocol, scheme_name, seed, monkeypatch
            )
            for site, db in gtm.sites.items():
                function = db.protocol.serialization_function
                history = db.history.committed_schedule()
                images = {}
                for incarnation in history.transaction_ids:
                    if incarnation not in plans:
                        continue  # a local transaction
                    image_op = image(function, history, incarnation)
                    flagged = flagged_image(plans[incarnation], site)
                    assert shape(flagged) == shape(image_op), (seed, site)
                    images[incarnation] = image_op
                graph = serialization_graph(history)
                for source, source_image in images.items():
                    for target in graph.reachable_from(source):
                        if target in images:
                            assert history.precedes(
                                source_image, images[target]
                            ), (seed, site, source, target)
                            checked += 1
        assert checked > 0
