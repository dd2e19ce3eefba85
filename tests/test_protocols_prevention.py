"""Tests for wound-wait / wait-die deadlock-prevention 2PL."""

import random

import pytest

from repro.core import GlobalProgram, GTMSystem, make_scheme
from repro.exceptions import ProtocolViolation
from repro.lmdbs import LocalDBMS, make_protocol
from repro.lmdbs.protocols.base import Verdict
from repro.lmdbs.protocols.two_phase_locking import PreventionTwoPhaseLocking
from repro.schedules.model import begin, commit, read, write
from repro.schedules.serialization_functions import CommitSerializationFunction
from repro.schedules.serialization_graph import serialization_graph
from tests.reference.serialization_functions import is_valid_for
from tests.support import AckRecorder


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtocolViolation):
            PreventionTwoPhaseLocking("hope-for-the-best")

    def test_names(self):
        assert PreventionTwoPhaseLocking("wound-wait").name == "wound-wait-2pl"
        assert PreventionTwoPhaseLocking("wait-die").name == "wait-die-2pl"


class TestWaitDie:
    def test_older_requester_waits(self):
        protocol = PreventionTwoPhaseLocking("wait-die")
        protocol.on_begin("T1")  # older
        protocol.on_begin("T2")
        protocol.on_write("T2", "x")
        decision = protocol.on_read("T1", "x")
        assert decision.verdict is Verdict.BLOCK

    def test_younger_requester_dies(self):
        protocol = PreventionTwoPhaseLocking("wait-die")
        protocol.on_begin("T1")
        protocol.on_begin("T2")  # younger
        protocol.on_write("T1", "x")
        decision = protocol.on_read("T2", "x")
        assert decision.verdict is Verdict.ABORT
        assert decision.victims == ("T2",)
        assert protocol.prevention_aborts == 1


class TestWoundWait:
    def test_younger_requester_waits(self):
        protocol = PreventionTwoPhaseLocking("wound-wait")
        protocol.on_begin("T1")
        protocol.on_begin("T2")  # younger
        protocol.on_write("T1", "x")
        decision = protocol.on_read("T2", "x")
        assert decision.verdict is Verdict.BLOCK
        assert decision.victims == ()

    def test_older_requester_wounds(self):
        protocol = PreventionTwoPhaseLocking("wound-wait")
        protocol.on_begin("T1")  # older
        protocol.on_begin("T2")
        protocol.on_write("T2", "x")
        decision = protocol.on_read("T1", "x")
        assert decision.verdict is Verdict.BLOCK
        assert decision.victims == ("T2",)

    def test_wound_through_database_grants_requester(self):
        db = LocalDBMS("s1", PreventionTwoPhaseLocking("wound-wait"))
        acks = AckRecorder(db)
        aborted = []
        db.abort_listeners.append(lambda txn, reason: aborted.append(txn))
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(write("T2", "x", "s1"))
        # T2 wounded, T1's read granted during the wake cascade
        assert acks.submit(read("T1", "x", "s1")) == [(None, False)]
        assert aborted == ["T2"]


@pytest.mark.parametrize("policy", ["wound-wait", "wait-die"])
class TestNoDeadlocks:
    def test_crossed_locks_never_stall(self, policy):
        """The classic deadlock pattern resolves by abort, never stalls."""
        db = LocalDBMS("s1", PreventionTwoPhaseLocking(policy))
        db.submit(begin("T1", "s1"))
        db.submit(begin("T2", "s1"))
        db.submit(read("T1", "x", "s1"))
        db.submit(read("T2", "y", "s1"))
        aborted = []
        db.abort_listeners.append(lambda txn, reason: aborted.append(txn))
        db.submit(write("T1", "y", "s1"))
        blocked = db.is_blocked("T1")
        if "T2" not in aborted and db.is_active("T2"):
            db.submit(write("T2", "x", "s1"))
            blocked = blocked or db.is_blocked("T2")
        # someone died or someone got through — nobody circularly waits
        assert aborted or not blocked

    def test_random_histories_csr(self, policy):
        rng = random.Random(policy)
        db = LocalDBMS("s1", PreventionTwoPhaseLocking(policy))
        alive = {}
        db.abort_listeners.append(
            lambda txn, reason: alive.__setitem__(txn, False)
        )
        for index in range(8):
            txn = f"T{index}"
            db.submit(begin(txn, "s1"))
            alive[txn] = True
        for _ in range(40):
            candidates = [t for t, ok in alive.items() if ok]
            if not candidates:
                break
            txn = rng.choice(candidates)
            if db.is_blocked(txn):
                continue
            if not db.is_active(txn):
                alive[txn] = False
                continue
            item = rng.choice("xyz")
            maker = read if rng.random() < 0.5 else write
            db.submit(maker(txn, item, "s1"))
        for txn, ok in alive.items():
            if ok and db.is_active(txn) and not db.is_blocked(txn):
                db.submit(commit(txn, "s1"))
        history = db.history.committed_schedule()
        assert serialization_graph(history).is_acyclic()
        if history.transaction_ids:
            assert is_valid_for(CommitSerializationFunction(), history)

    def test_gtm_integration(self, policy):
        sites = {
            "s0": LocalDBMS("s0", make_protocol(f"{policy}-2pl")),
            "s1": LocalDBMS("s1", make_protocol("to")),
        }
        gtm = GTMSystem(sites, make_scheme("scheme3"))
        for index in range(5):
            gtm.submit_global(
                GlobalProgram.build(
                    f"G{index}", [("s0", "w", "x"), ("s1", "w", "y")]
                )
            )
        gtm.run()
        assert len(gtm.committed) == 5
        gtm.verify_serializable()
