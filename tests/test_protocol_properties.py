"""Property-based tests over the local protocols: for *any* interleaved
client workload, every protocol must produce a conflict-serializable
committed history, answer each submission exactly once (or leave it
blocked), and each protocol's recoverability class and
serialization-function pairing must hold."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lmdbs import LocalDBMS, make_protocol
from repro.schedules.model import begin, commit, read, write
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
)
from repro.schedules.serialization_graph import serialization_graph
from tests.reference.recoverability import avoids_cascading_aborts, is_strict
from tests.reference.serialization_functions import is_valid_for
from tests.support import AckRecorder

PROTOCOL_NAMES = [
    "strict-2pl",
    "wound-wait-2pl",
    "wait-die-2pl",
    "conservative-2pl",
    "to",
    "conservative-to",
    "sgt",
    "occ",
]


@st.composite
def client_scripts(draw):
    """A set of client programs plus an interleaving seed."""
    clients = draw(st.integers(2, 5))
    programs = []
    for index in range(clients):
        ops = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["r", "w"]), st.sampled_from(["x", "y", "z"])
                ),
                min_size=1,
                max_size=4,
            )
        )
        programs.append(ops)
    choices = draw(st.lists(st.integers(0, clients - 1), max_size=60))
    return programs, choices


def run_script(protocol_name, programs, choices):
    """Run the clients' programs against one site in the order *choices*
    picks, checking that every submission is answered at most once
    through its callback and that one never answered is still blocked."""
    db = LocalDBMS("s1", make_protocol(protocol_name))
    acks = AckRecorder(db)
    alive = [True] * len(programs)
    db.abort_listeners.append(
        lambda txn, reason: alive.__setitem__(int(txn[1:]), False)
    )
    cursors = [0] * len(programs)
    plans = []
    pending = set()
    for index, accesses in enumerate(programs):
        txn = f"T{index}"
        operations = [begin(txn, "s1")]
        operations += [
            (read if kind == "r" else write)(txn, item, "s1")
            for kind, item in accesses
        ]
        operations.append(commit(txn, "s1"))
        plans.append(operations)
    for choice in choices:
        index = choice
        if not alive[index] or index in pending:
            continue
        if cursors[index] >= len(plans[index]):
            continue
        txn = f"T{index}"
        accesses = programs[index]

        def callback(op, value, aborted, index=index):
            if aborted:
                alive[index] = False
            else:
                cursors[index] += 1
            pending.discard(index)

        acks.submit(
            plans[index][cursors[index]],
            callback,
            read_set=frozenset(i for k, i in accesses if k == "r"),
            write_set=frozenset(i for k, i in accesses if k == "w"),
        )
        if db.is_blocked(txn):
            pending.add(index)
    acks.check_exactly_once()
    return db


class TestUniversalProtocolProperties:
    @given(client_scripts())
    @settings(max_examples=40, deadline=None)
    def test_all_protocols_csr(self, script):
        programs, choices = script
        for name in PROTOCOL_NAMES:
            db = run_script(name, programs, choices)
            committed = db.history.committed_schedule()
            assert serialization_graph(committed).is_acyclic(), name

    @given(client_scripts())
    @settings(max_examples=25, deadline=None)
    def test_locking_protocols_strict_histories(self, script):
        programs, choices = script
        for name in ("strict-2pl", "wound-wait-2pl", "wait-die-2pl",
                     "conservative-2pl"):
            db = run_script(name, programs, choices)
            assert is_strict(db.history.schedule), name

    @given(client_scripts())
    @settings(max_examples=25, deadline=None)
    def test_occ_histories_aca(self, script):
        programs, choices = script
        db = run_script("occ", programs, choices)
        assert avoids_cascading_aborts(db.history.schedule)

    @given(client_scripts())
    @settings(max_examples=25, deadline=None)
    def test_serialization_function_pairings(self, script):
        programs, choices = script
        pairings = [
            ("strict-2pl", CommitSerializationFunction()),
            ("to", BeginSerializationFunction()),
            ("conservative-2pl", BeginSerializationFunction()),
        ]
        for name, strategy in pairings:
            db = run_script(name, programs, choices)
            committed = db.history.committed_schedule()
            if committed.transaction_ids:
                assert is_valid_for(strategy, committed), name

    @given(client_scripts())
    @settings(max_examples=25, deadline=None)
    def test_conservative_protocols_never_abort(self, script):
        programs, choices = script
        for name in ("conservative-2pl", "conservative-to"):
            db = run_script(name, programs, choices)
            assert db.aborted_count == 0, name
