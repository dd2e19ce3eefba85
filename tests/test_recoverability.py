"""Tests for recoverability classes (RC/ACA/ST) and the guarantees our
local protocols actually deliver."""

import random

import pytest

from repro.lmdbs import LocalDBMS, make_protocol
from repro.schedules.model import begin, commit, read, write
from tests.reference.recoverability import (
    avoids_cascading_aborts,
    classify,
    is_recoverable,
    is_strict,
    reads_from_pairs,
)
from tests.support import parse_schedule


class TestReadsFrom:
    def test_simple_pair(self):
        schedule = parse_schedule("w1[x] r2[x]")
        pairs = reads_from_pairs(schedule)
        assert len(pairs) == 1
        assert (pairs[0].reader, pairs[0].writer) == ("2", "1")

    def test_own_write_not_counted(self):
        schedule = parse_schedule("w1[x] r1[x]")
        assert reads_from_pairs(schedule) == []

    def test_initial_read_not_counted(self):
        schedule = parse_schedule("r1[x]")
        assert reads_from_pairs(schedule) == []

    def test_latest_writer_wins(self):
        schedule = parse_schedule("w1[x] w2[x] r3[x]")
        pairs = reads_from_pairs(schedule)
        assert pairs[0].writer == "2"


class TestRC:
    def test_commit_order_respected(self):
        assert is_recoverable(parse_schedule("w1[x] r2[x] c1 c2"))

    def test_reader_commits_first_violates(self):
        assert not is_recoverable(parse_schedule("w1[x] r2[x] c2 c1"))

    def test_read_from_aborted_violates(self):
        assert not is_recoverable(parse_schedule("w1[x] r2[x] c2 a1"))

    def test_aborted_reader_imposes_nothing(self):
        assert is_recoverable(parse_schedule("w1[x] r2[x] a2 c1"))

    def test_unresolved_writer_with_committed_reader(self):
        assert not is_recoverable(parse_schedule("w1[x] r2[x] c2"))


class TestACA:
    def test_read_of_uncommitted_violates(self):
        assert not avoids_cascading_aborts(parse_schedule("w1[x] r2[x] c1 c2"))

    def test_read_after_commit_ok(self):
        assert avoids_cascading_aborts(parse_schedule("w1[x] c1 r2[x] c2"))

    def test_aca_implies_rc(self):
        schedule = parse_schedule("w1[x] c1 r2[x] c2")
        assert avoids_cascading_aborts(schedule)
        assert is_recoverable(schedule)


class TestST:
    def test_overwrite_of_uncommitted_violates(self):
        assert not is_strict(parse_schedule("w1[x] w2[x] c1 c2"))

    def test_overwrite_after_abort_ok(self):
        assert is_strict(parse_schedule("w1[x] a1 w2[x] c2"))

    def test_strict_implies_aca(self):
        schedule = parse_schedule("w1[x] c1 w2[x] r3[y] c2 c3")
        assert is_strict(schedule)
        assert avoids_cascading_aborts(schedule)

    def test_classify_ladder(self):
        assert classify(parse_schedule("w1[x] c1 r2[x] c2")) == "ST"
        assert (
            classify(parse_schedule("w1[x] w2[x] c1 c2")) == "ACA"
        )  # blind overwrite of uncommitted: not ST, reads fine
        assert classify(parse_schedule("w1[x] r2[x] c1 c2")) == "RC"
        assert classify(parse_schedule("w1[x] r2[x] c2 c1")) == "NONE"


def run_protocol_workload(protocol_name, seed, clients=6, ops=3):
    rng = random.Random(seed)
    db = LocalDBMS("s1", make_protocol(protocol_name))
    alive = {}
    # wounded victims may be active holders with no operation in flight:
    # only the abort listener tells the client its transaction died
    db.abort_listeners.append(
        lambda txn, reason: alive.__setitem__(txn, False)
    )
    programs = {}
    for index in range(clients):
        txn = f"T{index}"
        accesses = [
            (rng.choice("rw"), rng.choice("xyz")) for _ in range(ops)
        ]
        operations = [begin(txn, "s1")]
        operations += [
            (read if kind == "r" else write)(txn, item, "s1")
            for kind, item in accesses
        ]
        operations.append(commit(txn, "s1"))
        programs[txn] = {
            "ops": operations,
            "cursor": 0,
            "rs": frozenset(i for k, i in accesses if k == "r"),
            "ws": frozenset(i for k, i in accesses if k == "w"),
        }
        alive[txn] = True
    pending = set()
    for _ in range(clients * (ops + 2) * 4):
        ready = [
            t
            for t, state in programs.items()
            if alive[t] and t not in pending and state["cursor"] < len(state["ops"])
        ]
        if not ready:
            break
        txn = rng.choice(ready)
        state = programs[txn]

        def callback(op, value, aborted, txn=txn):
            if aborted:
                alive[txn] = False
            else:
                programs[txn]["cursor"] += 1
            pending.discard(txn)

        db.submit(
            state["ops"][state["cursor"]],
            callback=callback,
            read_set=state["rs"],
            write_set=state["ws"],
        )
        if db.is_blocked(txn):
            pending.add(txn)
    return db.history.schedule


@pytest.mark.parametrize("seed", range(8))
class TestProtocolGuarantees:
    def test_strict_2pl_histories_are_strict(self, seed):
        history = run_protocol_workload("strict-2pl", seed)
        assert is_strict(history)

    def test_conservative_2pl_histories_are_strict(self, seed):
        history = run_protocol_workload("conservative-2pl", seed)
        assert is_strict(history)

    def test_occ_histories_avoid_cascading_aborts(self, seed):
        # deferred writes install at commit: nobody reads uncommitted data
        history = run_protocol_workload("occ", seed)
        assert avoids_cascading_aborts(history)

    def test_wound_wait_histories_are_strict(self, seed):
        history = run_protocol_workload("wound-wait-2pl", seed)
        assert is_strict(history)
