"""Tests for the Basic_Scheme engine (Figure 3)."""

import pytest

from repro.core import SCHEMES, make_scheme
from repro.core.engine import Engine
from repro.core.events import Ack, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.exceptions import SchedulerError
from tests.support import wait_set


class RecordingScheme(ConservativeScheme):
    """A scheme with scriptable cond results, for engine testing."""

    name = "recording"

    def __init__(self, blocked=()):
        super().__init__()
        self.blocked = set(blocked)  # (kind, txn) pairs that must wait
        self.acted = []

    def _cond(self, operation):
        return (operation.kind, operation.transaction_id) not in self.blocked

    def unblock(self, kind, txn):
        self.blocked.discard((kind, txn))

    cond_init = _cond
    cond_ser = _cond
    cond_fin = _cond

    def cond_ack(self, operation):
        return self._cond(operation)

    def act_init(self, operation):
        self.acted.append(repr(operation))

    def act_ser(self, operation):
        self.acted.append(repr(operation))
        self.submit(operation)

    def act_ack(self, operation):
        self.acted.append(repr(operation))
        self.forward(operation)

    def act_fin(self, operation):
        self.acted.append(repr(operation))


class TestEngineBasics:
    def test_processes_in_queue_order(self):
        scheme = RecordingScheme()
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        assert scheme.acted == ["init_G1(s1)", "ser_s1(G1)"]

    def test_blocked_operation_goes_to_wait(self):
        scheme = RecordingScheme(blocked={("ser", "G1")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        assert len(wait_set(engine)) == 1
        assert scheme.metrics.waited == {"ser": 1}

    def test_wait_drains_on_later_progress(self):
        scheme = RecordingScheme(blocked={("ser", "G1")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        scheme.unblock("ser", "G1")
        # any processed operation triggers re-examination (full rescan,
        # since RecordingScheme has no wake_hints)
        engine.enqueue(Init("G2", sites=("s1",)))
        engine.run()
        assert wait_set(engine) == ()
        assert "ser_s1(G1)" in scheme.acted

    def test_submit_and_ack_handlers(self):
        submitted, forwarded = [], []
        scheme = RecordingScheme()
        engine = Engine(
            scheme,
            submit_handler=submitted.append,
            ack_handler=forwarded.append,
        )
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.enqueue(Ack("G1", site="s1"))
        engine.run()
        assert submitted == [Ser("G1", site="s1")]
        assert forwarded == [Ack("G1", site="s1")]

    def test_assert_drained_raises_when_stuck(self):
        scheme = RecordingScheme(blocked={("ser", "G1")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        with pytest.raises(SchedulerError):
            engine.assert_drained()

    def test_purge_transaction(self):
        scheme = RecordingScheme(blocked={("ser", "G1")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        engine.purge_transaction("G1")
        assert wait_set(engine) == ()
        engine.assert_drained()

    def test_purge_forces_rescan(self):
        scheme = RecordingScheme(blocked={("ser", "G1"), ("ser", "G2")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.enqueue(Init("G2", sites=("s1",)))
        engine.enqueue(Ser("G2", site="s1"))
        engine.run()
        scheme.unblock("ser", "G2")
        engine.purge_transaction("G1")
        engine.run()
        assert "ser_s1(G2)" in scheme.acted

    def test_wait_ticks_accounted(self):
        scheme = RecordingScheme(blocked={("ser", "G1")})
        engine = Engine(scheme)
        engine.enqueue(Init("G1", sites=("s1",)))
        engine.enqueue(Ser("G1", site="s1"))
        engine.run()
        scheme.unblock("ser", "G1")
        engine.enqueue(Init("G2", sites=("s1",)))
        engine.run()
        assert scheme.metrics.wait_ticks >= 1


@pytest.mark.parametrize("name", [*SCHEMES, "2pl-gtm"])
def test_purge_alone_releases_what_the_aborted_transaction_held(name):
    """G1's ser runs at s0 and is never acked, so G2's ser there waits;
    aborting G1 takes one ``purge_transaction``, which also removes G1
    from the scheme's DS, and the next run grants G2."""
    submitted = []
    engine = Engine(make_scheme(name), submit_handler=submitted.append)
    engine.enqueue(Init("G1", sites=("s0",)))
    engine.enqueue(Init("G2", sites=("s0",)))
    engine.enqueue(Ser("G1", site="s0"))
    engine.enqueue(Ser("G2", site="s0"))
    engine.run()
    assert submitted == [Ser("G1", site="s0")]
    assert wait_set(engine) == (Ser("G2", site="s0"),)
    engine.purge_transaction("G1")
    engine.run()
    assert submitted == [Ser("G1", site="s0"), Ser("G2", site="s0")]
    assert wait_set(engine) == ()


class TestInitValidation:
    def test_init_requires_sites(self):
        with pytest.raises(ValueError):
            Init("G1", sites=())

    def test_init_rejects_duplicate_sites(self):
        with pytest.raises(ValueError):
            Init("G1", sites=("s1", "s1"))
