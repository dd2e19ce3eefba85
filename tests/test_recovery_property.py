"""Property-based recovery tests: for random traces, random crash
points, and every scheme, the crash-recovered run is indistinguishable
from the uninterrupted one — for random fault plans against the
replicated commit group, prepared participants are never torn between
a unilateral abort and a quorum-chosen commit — and under random
message fates and replica crashes the group's quorums are real."""

from functools import partial

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.commit import CoordinatorGroup
from repro.core import Scheme0, Scheme1, Scheme2, Scheme3
from repro.core.engine import Engine
from repro.core.events import Init, Ser
from repro.core.recovery import Journal, recover_engine
from repro.faults import FaultInjector, StormShape
from repro.mdbs.events import EventLoop
from repro.workloads.traces import SyncGTM1
from tests.support import vote_durable


@st.composite
def workloads(draw):
    site_names = ["s0", "s1", "s2"]
    count = draw(st.integers(2, 6))
    records = []
    pending = []
    for index in range(count):
        sites = tuple(
            draw(
                st.lists(
                    st.sampled_from(site_names),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        records.append(Init(f"G{index}", sites=sites))
        pending.extend(Ser(f"G{index}", site=s) for s in sites)
    order = draw(st.permutations(range(len(pending))))
    records.extend(pending[i] for i in order)
    crash_at = draw(st.integers(1, len(records)))
    scheme_index = draw(st.integers(0, 3))
    return records, crash_at, scheme_index

SCHEME_FACTORIES = [Scheme0, Scheme1, Scheme2, Scheme3]


def run(factory, records, crash_at=None, journal=None):
    """Feed records through a synchronous GTM1 (immediate acks, GTM1's
    fins); optionally crash before record ``crash_at``; returns the
    GTM1."""
    gtm1 = SyncGTM1()
    gtm1.engine = Engine(factory(), journal=journal, **gtm1.handlers)
    for record in records[:crash_at]:
        gtm1.insert(record)
    return gtm1


class TestRecoveryProperty:
    @given(workloads())
    @settings(max_examples=50, deadline=None)
    def test_crash_recover_equals_reference(self, workload):
        records, crash_at, scheme_index = workload
        factory = SCHEME_FACTORIES[scheme_index]

        # reference
        reference = run(factory, records)
        reference.engine.assert_drained()

        # crashed
        journal = Journal()
        gtm1 = run(factory, records, crash_at=crash_at, journal=journal)

        # recovery
        gtm1.engine = recover_engine(factory(), journal, **gtm1.handlers)
        gtm1.engine.run()
        for record in records[crash_at:]:
            gtm1.insert(record)
        gtm1.engine.assert_drained()
        assert gtm1.submitted == reference.submitted


@st.composite
def commit_fault_plans(draw):
    """A random commit-group fault plan: coordinator-replica crashes
    and vote/decide partitions always present (they are the scenarios
    under test), message faults and GTM/site crashes mixed in."""
    seed = draw(st.integers(0, 10_000))
    return seed, dict(
        loss_rate=draw(st.sampled_from([0.0, 0.05, 0.10])),
        duplication_rate=draw(st.sampled_from([0.0, 0.05])),
        delay_rate=draw(st.sampled_from([0.0, 0.10])),
        gtm_crash_count=draw(st.integers(0, 1)),
        site_crash_count=draw(st.integers(0, 1)),
        downtime=draw(st.sampled_from([25.0, 100.0, 300.0])),
        coordinator_crash_count=draw(st.integers(1, 2)),
        vote_decide_partition_count=draw(st.integers(0, 2)),
        commit_group_size=3,
    )


class TestCommitGroupProperty:
    """Satellite: under random fault plans with atomic commit and a
    2f+1 coordinator group, a participant that voted YES never
    unilaterally aborts, and never holds in-doubt state once a quorum
    of replicas is reachable (every downtime and partition in a plan
    is finite, so by simulation end a quorum is always back)."""

    @given(commit_fault_plans())
    @settings(max_examples=15, deadline=None)
    def test_yes_voters_terminate_without_unilateral_aborts(self, drawn):
        from tests.test_atomic_commit import build_atomic_simulator

        seed, knobs = drawn
        plan = StormShape(**knobs).draw(seed, ["s0", "s1", "s2"])
        simulator = build_atomic_simulator(
            seed=seed, injector=FaultInjector(plan), commit_group_size=3
        )
        report = simulator.run()

        # no unilateral aborts: a prepared (YES-voting) participant may
        # only terminate by coordinator-group decision.  Ground truth is
        # the uniqueness report — a unilateral abort of a chosen-COMMIT
        # incarnation would surface as a site-history contradiction —
        # plus the direct counters: no site ever refused a COMMIT
        # decision it voted YES for.
        decisions = simulator.decision_uniqueness_report()
        assert decisions.ok, decisions.violations
        assert report.commit_stats.decide_commit_nacks == 0
        atomicity = simulator.atomicity_report()
        assert atomicity.ok, atomicity.violations

        # no lingering in-doubt state: quorum reachable at end (all
        # crashes/partitions healed) means every window closed.
        assert report.commit_stats.in_doubt_open_at_end == 0
        for participant in simulator.commit.participants.values():
            assert participant.open_in_doubt(simulator.loop.now) == ()


VOTING_SITES = ("s0", "s1")


@st.composite
def group_storms(draw):
    """A 3- or 5-replica group's inputs: YES votes, at most one GTM
    proposal per incarnation (as the coordinator makes), in-doubt
    inquiries that may launch takeovers, and replica crash/restart
    windows — all at random times — plus the random stream every
    message leg draws its copies from."""
    size = draw(st.sampled_from([3, 5]))
    incarnation = st.sampled_from(["G0", "G1", "G2"])
    at = st.integers(0, 300)
    rank = st.integers(0, size - 1)
    return dict(
        size=size,
        rng=draw(st.randoms(use_true_random=False)),
        votes=draw(
            st.lists(
                st.tuples(at, incarnation, st.sampled_from(VOTING_SITES)),
                max_size=6,
            )
        ),
        proposals=draw(
            st.dictionaries(incarnation, st.tuples(at, st.booleans()))
        ),
        inquiries=draw(st.lists(st.tuples(at, rank, incarnation), max_size=6)),
        crashes=draw(
            st.lists(
                st.tuples(at, rank, st.integers(1, 400)), max_size=2 * size
            )
        ),
    )


class TestCoordinatorGroupQuorumProperty:
    """Quorum safety on a bare event loop: every leg of every message is
    delivered 0-3 times with small extra delays, replicas crash and
    restart at random, and GTM proposals race takeovers.  The fixed
    ``DUPLICATE_EVERYTHING`` regressions in ``test_atomic_commit.py``
    are three points of this space."""

    @given(group_storms())
    @settings(max_examples=60, deadline=None)
    def test_quorums_count_distinct_replicas(self, storm):
        from tests.test_atomic_commit import plane_send

        loop = EventLoop()
        rng = storm["rng"]

        def fate():
            copies = rng.randint(0, 3)
            return tuple(rng.uniform(0.0, 3.0) for _ in range(copies))

        group = CoordinatorGroup(storm["size"], loop, plane_send(loop, fate))
        heard = []
        for at, incarnation, site in storm["votes"]:
            loop.schedule(
                at,
                partial(group.broadcast_vote, incarnation, site, VOTING_SITES),
            )
        for incarnation, (at, value) in storm["proposals"].items():
            loop.schedule(
                at,
                partial(
                    group.propose,
                    incarnation,
                    value,
                    on_chosen=partial(
                        lambda name, chosen: heard.append((name, chosen)),
                        incarnation,
                    ),
                ),
            )
        for at, rank, incarnation in storm["inquiries"]:
            loop.schedule(at, partial(group.inquire, rank, incarnation))
        for at, rank, downtime in storm["crashes"]:
            loop.schedule(at, partial(group.crash_replica, rank))
            loop.schedule(at + downtime, partial(group.restart_replica, rank))
        loop.run(until=3_000.0)

        quorum = group.quorum
        for incarnation, value in group.chosen.items():
            accepted = [
                replica.rank
                for replica in group.replicas
                if replica.accepted.get(incarnation, (None, None))[1] == value
            ]
            assert len(accepted) >= quorum, (incarnation, value, accepted)
        for _, incarnation, site in storm["votes"]:
            if vote_durable(group, incarnation, site):
                logged = [
                    replica.rank
                    for replica in group.replicas
                    if site in replica.votes.get(incarnation, ())
                ]
                assert len(logged) >= quorum, (incarnation, site, logged)
        for replica in group.replicas:
            for incarnation, value in replica.learned.items():
                assert group.chosen[incarnation] == value
        for incarnation, value in heard:
            assert group.chosen[incarnation] == value
        assert group.stats.decision_conflicts == 0
