"""The transport seam is behaviour-preserving.

PR 3 proved the fast paths replay the legacy scheduler byte-for-byte;
this suite does the same for the transport abstraction, in two layers:

- **byte identity** — :class:`~repro.transport.sim.SimTransport` must be
  indistinguishable from driving :class:`~repro.mdbs.simulator.
  MDBSSimulator` by hand (the pre-transport callers), schedules and
  reports included, with and without a fault plan;
- **decision equivalence** — the sharded
  :class:`~repro.transport.parallel.ParallelTransport` must reach the
  same WAIT/GRANT outcomes as the single loop on site-disjoint grouped
  workloads: committed/failed sets, verification verdicts, the
  response-time multiset (every wait a scheme imposed), abort counts.
  ``events_executed``/``scheme_steps`` legitimately differ (per-shard
  watchdog tick chains, per-shard scans — see
  :mod:`repro.transport.base`) and are excluded.  Every scheduler
  the simulator accepts is checked: this is what guards
  partition-locality.

A hypothesis property drives the partition boundary itself: a global
transaction that spans two site components forces the sharder to merge
them (it is never split mid-transaction), and either way the decisions
match the unsharded run.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.bench import make_e4_job
from repro.commit import CommitGroupStats, CommitStats
from repro.baselines import BASELINES
from repro.core import SCHEMES, make_scheme
from repro.core.gtm import Access, GlobalProgram, site_components
from repro.core.metrics import SchemeMetrics
from repro.faults.chaos import ChaosOptions, chaos_job, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultStats
from repro.faults.plan import StormShape
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator
from repro.observability import fold
from repro.replication import ReplicationStats
from repro.transport import (
    ParallelTransport,
    SimTransport,
    shard_jobs,
    unshardable_reason,
)
from repro.workloads import WorkloadConfig, WorkloadGenerator

#: report fields that encode scheduling decisions (counts of outcomes
#: the scheme chose) — these must survive sharding exactly
DECISION_FIELDS = (
    "committed_global",
    "failed_global",
    "global_aborts",
    "committed_local",
    "local_aborts",
    "watchdog_aborts",
)


def _decisions(result):
    """Everything a WAIT/GRANT decision can influence, in
    partition-independent form."""
    view = {
        "committed": tuple(sorted(result.committed)),
        "failed": tuple(sorted(result.failed)),
        "verification": result.verification,
        "response_times": Counter(result.report.response_times),
        # the other verdicts fold across shards
        "failure_reasons": result.failure_reasons(),
        "partial_commits": tuple(sorted(result.atomicity.partial_commits)),
    }
    for field in DECISION_FIELDS:
        view[field] = getattr(result.report, field)
    return view


def _assert_same_decisions(sim_result, par_result):
    sim_view = _decisions(sim_result)
    par_view = _decisions(par_result)
    for key in sim_view:
        assert sim_view[key] == par_view[key], key


def _normalized_schedules(schedule):
    """Per-site operation tuples with ``Operation.seq`` — a
    process-global allocation counter — rewritten to its rank within
    this run (same normalization as test_fastpath_equivalence)."""
    site_ops = {
        site: tuple(schedule.local_schedule(site))
        for site in schedule.sites
    }
    rank = {
        seq: position
        for position, seq in enumerate(
            sorted(
                operation.seq
                for operations in site_ops.values()
                for operation in operations
            )
        )
    }
    return {
        site: tuple(
            dataclasses.replace(operation, seq=rank[operation.seq])
            for operation in operations
        )
        for site, operations in site_ops.items()
    }


def _run_direct(job):
    """Drive MDBSSimulator by hand, exactly as every pre-transport
    caller did."""
    sites = {
        site: LocalDBMS(site, make_protocol(protocol))
        for site, protocol in job.site_protocols
    }
    simulator = MDBSSimulator(
        sites,
        make_scheme(job.scheme),
        job.config,
        injector=(
            FaultInjector(job.plan) if job.plan is not None else None
        ),
        atomic_commit=job.atomic_commit,
        commit_group_size=job.commit_group_size,
    )
    for program, at in job.global_programs:
        simulator.submit_global(program, at=at)
    for program, at in job.local_programs:
        simulator.submit_local(program, at=at)
    report = simulator.run()
    return report, simulator


# ----------------------------------------------------------------------
# byte identity: SimTransport == hand-driven simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3", "scheme4"])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_sim_transport_matches_direct_simulator(scheme_name, seed):
    """The regression seeds: the sim transport returns the very
    schedules, ser(S), report, and verdict a hand-built simulator
    produces."""
    job = make_e4_job(scheme_name, 8, seed)
    report, simulator = _run_direct(job)
    result = SimTransport().run(job)
    assert result.shards == 1
    assert result.report == report
    assert tuple(result.committed) == tuple(simulator.committed_global)
    assert tuple(result.failed) == tuple(simulator.failed_global)
    assert _normalized_schedules(
        result.global_schedule
    ) == _normalized_schedules(simulator.global_schedule())
    assert tuple(result.ser_schedule.operations) == tuple(
        simulator.ser_schedule.operations
    )
    assert result.verification.ok


def test_sim_transport_matches_direct_simulator_with_faults():
    """Same identity under a fault plan: the job->injector wiring must
    reproduce the hand-built injector's draw sequence exactly."""
    base = make_e4_job("scheme2", 8, 11)
    plan = StormShape(gtm_crash_count=1, site_crash_count=1).draw(
        11, base.sites
    )
    job = dataclasses.replace(base, plan=plan)
    report, simulator = _run_direct(job)
    result = SimTransport().run(job)
    assert result.report == report
    assert tuple(result.committed) == tuple(simulator.committed_global)
    assert tuple(result.ser_schedule.operations) == tuple(
        simulator.ser_schedule.operations
    )


def test_a_chaos_storm_is_its_job():
    """``run_chaos`` runs nothing but its storm's job, on the one path
    that runs and judges a job."""
    options = ChaosOptions(scheme="scheme2")
    result = SimTransport().run(chaos_job(options, 11))
    chaos = run_chaos(options, 11)
    assert result.report == chaos.report
    assert result.failure_reasons() == chaos.failure_reasons() == ()


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_a_restart_never_recommits_a_global(scheme_name):
    """At MPL 32 the E4 cell aborts globals after they committed at some
    site; every restart's recovery inquiry skips those sites, so each
    commit is applied exactly once and every verdict holds."""
    result = SimTransport().run(make_e4_job(scheme_name, 32, 7))
    assert result.atomicity.exactly_once.duplicated == ()
    assert result.ok, result.failure_reasons()


def test_a_replicated_storm_runs_as_one_shard():
    """A logical program names no site until it starts, so a replicated
    job cannot be split by site component: the parallel transport runs
    it whole, says why, and matches the single loop."""
    options = ChaosOptions(
        scheme="scheme2",
        global_txns=12,
        atomic_commit=True,
        replication_degree=2,
        write_crash_count=1,
    )
    job = chaos_job(options, 7)
    result = ParallelTransport(workers=1).run(job)
    assert result.shards == 1
    assert "routed" in result.unsharded_because
    assert result.report == SimTransport().run(job).report
    assert result.report.replication.writes_fanout > 0


# ----------------------------------------------------------------------
# decision equivalence: sharded == single loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3", "scheme4"])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_grouped_cells_shard_equivalently(scheme_name, seed):
    """Four site-disjoint groups, MPL 32 total: the partitioned run
    reaches the single loop's exact decisions."""
    job = make_e4_job(scheme_name, 32, seed, groups=4)
    assert unshardable_reason(job) is None
    sim_result = SimTransport().run(job)
    par_result = ParallelTransport(workers=1).run(job)
    assert par_result.shards == 4
    _assert_same_decisions(sim_result, par_result)
    assert sim_result.verification.ok and par_result.verification.ok


#: every scheduler the simulator accepts (it refuses the ones that can
#: abort at fin)
ACCEPTED = [
    name for name in (*SCHEMES, *BASELINES) if not make_scheme(name).aborts_at_fin
]


@pytest.mark.parametrize("scheme_name", ACCEPTED)
def test_every_accepted_scheduler_shards_equivalently(scheme_name):
    """Partition-locality is a property of every scheduler a job can
    name, not a flag: each one's decisions on four site-disjoint groups
    are the single loop's, paper schemes and baselines alike."""
    for seed in range(6):
        job = make_e4_job(scheme_name, 16, seed, groups=4)
        assert unshardable_reason(job) is None
        sim_result = SimTransport().run(job)
        par_result = ParallelTransport(workers=1).run(job)
        assert par_result.shards == 4
        _assert_same_decisions(sim_result, par_result)
        assert sim_result.verification.ok


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3", "scheme4"])
def test_sharded_two_phase_commit_reports_summed_commit_stats(scheme_name):
    """Under 2PC every shard runs its own coordinator and participants;
    the merged report carries their field-wise sum, which equals the
    single loop's commit stats (it used to come back ``None``)."""
    job = dataclasses.replace(
        make_e4_job(scheme_name, 16, 7, groups=4), atomic_commit=True
    )
    assert unshardable_reason(job) is None
    sim_result = SimTransport().run(job)
    par_result = ParallelTransport(workers=1).run(job)
    assert par_result.shards == 4
    _assert_same_decisions(sim_result, par_result)
    assert par_result.report.atomic_commit
    assert sim_result.report.commit_stats.commit_decisions > 0
    assert par_result.report.commit_stats == sim_result.report.commit_stats
    assert Counter(par_result.report.commit_latencies) == Counter(
        sim_result.report.commit_latencies
    )


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3", "scheme4"])
def test_multiprocessing_workers_match_sequential_shards(scheme_name):
    """Real worker processes (the production path) return what the
    in-process sequential sharding returns — pickling, snapshot/merge,
    and result ordering included."""
    job = make_e4_job(scheme_name, 32, 7, groups=4)
    sequential = ParallelTransport(workers=1).run(job)
    pooled = ParallelTransport(workers=4).run(job)
    assert pooled.shards == 4
    assert pooled.workers == 4
    _assert_same_decisions(sequential, pooled)
    assert pooled.report == sequential.report


#: the fault storms a sharded run must reproduce, by test-id suffix:
#: ``(message faults, 2PC)``.  Every storm crashes GTM2 once and one
#: site; 2PC adds two site crashes keyed to YES votes
STORMS = {
    "": (True, False),
    "crash-only": (False, False),
    "2pc": (True, True),
    "crash-only-2pc": (False, True),
}


@pytest.mark.parametrize(
    "scheme_name, seed, messages, two_pc",
    [
        pytest.param(
            scheme_name,
            seed,
            messages,
            two_pc,
            id="-".join(filter(None, (str(seed), scheme_name, storm))),
        )
        for storm, (messages, two_pc) in STORMS.items()
        for seed in (11, 23)
        for scheme_name in ("scheme2", "scheme3", "scheme4")
    ],
)
def test_fault_scenarios_shard_equivalently(scheme_name, seed, messages, two_pc):
    """Crash storms, with and without message faults and 2PC, and local
    transactions at every group: every fate and jitter draw comes from
    its channel's stream, so the injector inside the transport fires
    identically on both."""
    base = make_e4_job(scheme_name, 32, seed, groups=4)
    locals_ = []
    for group in range(4):
        cfg = WorkloadConfig(
            sites=4,
            items_per_site=12,
            dav=2.0,
            ops_per_site=2,
            seed=seed + 1009 * group,
            site_prefix=f"g{group}s",
            txn_prefix=f"g{group}G",
            local_txn_prefix=f"g{group}L",
        )
        for index, program in enumerate(
            WorkloadGenerator(cfg).local_batch(4)
        ):
            locals_.append((program, 10.0 + 25.0 * index))
    rates = {} if messages else dict(
        loss_rate=0.0, duplication_rate=0.0, delay_rate=0.0
    )
    plan = StormShape(
        gtm_crash_count=1,
        site_crash_count=1,
        prepare_crash_count=2 if two_pc else 0,
        **rates,
    ).draw(seed, base.sites)
    job = dataclasses.replace(
        base, plan=plan, local_programs=tuple(locals_), atomic_commit=two_pc
    )
    assert unshardable_reason(job) is None
    sim_result = SimTransport().run(job)
    par_result = ParallelTransport(workers=1).run(job)
    assert par_result.shards == 4
    _assert_same_decisions(sim_result, par_result)
    assert par_result.report.duration == sim_result.report.duration
    # a GTM2 crash hits every shard at once: counted once, not per shard
    assert par_result.report.fault_stats == sim_result.report.fault_stats
    assert par_result.report.commit_stats == sim_result.report.commit_stats


# ----------------------------------------------------------------------
# the partition boundary, property-tested
# ----------------------------------------------------------------------
def _bridge_program(rng):
    """A global transaction spanning both groups of a groups=2 job."""
    accesses = []
    for group in (0, 1):
        site = f"g{group}s{rng.randrange(4)}"
        accesses.append(
            Access(
                site=site,
                kind=rng.choice("rw"),
                item=f"{site}_x{rng.randrange(12)}",
            )
        )
    return GlobalProgram("Gbridge", tuple(accesses))


@given(
    seed=st.integers(min_value=0, max_value=999),
    scheme_name=st.sampled_from(["scheme2", "scheme3", "scheme4"]),
    bridged=st.booleans(),
)
@settings(max_examples=15, deadline=None)
# seed 115 leaves a site of one group untouched by any global: three
# components, not two
@example(seed=115, scheme_name="scheme2", bridged=False)
@example(seed=115, scheme_name="scheme2", bridged=True)
def test_cross_shard_transaction_property(seed, scheme_name, bridged):
    """Property: a global transaction spanning two GTM shards is never
    split — it merges the components of the sites it touches into one
    shard — and in every case the sharded run's WAIT/GRANT decisions and
    ser(S) verdict equal the unsharded run's."""
    job = make_e4_job(scheme_name, 8, seed, groups=2)
    components = site_components(
        job.sites, [program for program, _ in job.global_programs]
    )
    expected_shards = len(components)
    if bridged:
        bridge = _bridge_program(random.Random(seed))
        job = dataclasses.replace(
            job,
            global_programs=job.global_programs + ((bridge, 40.0),),
        )
        bridged_components = {
            component
            for component in components
            for site in bridge.sites
            if site in component
        }
        expected_shards -= len(bridged_components) - 1
    assert len(shard_jobs(job)) == expected_shards
    sim_result = SimTransport().run(job)
    par_result = ParallelTransport(workers=1).run(job)
    assert par_result.shards == expected_shards
    _assert_same_decisions(sim_result, par_result)
    assert (
        par_result.verification.ok == sim_result.verification.ok
    )


def test_single_shard_fallback_is_reported():
    """Why a job that could have been split ran as one shard travels
    with the result; a partitioned job reports nothing."""
    grouped = make_e4_job("scheme2", 8, 7, groups=4)
    quorum_job = dataclasses.replace(
        grouped, atomic_commit=True, commit_group_size=3
    )
    fallback = ParallelTransport(workers=1).run(quorum_job)
    assert fallback.shards == 1
    assert "quorum" in fallback.unsharded_because
    partitioned = ParallelTransport(workers=1).run(grouped)
    assert partitioned.shards == 4
    assert partitioned.unsharded_because is None


# ----------------------------------------------------------------------
# the fold behind the merged report
# ----------------------------------------------------------------------
STATS_CLASSES = (
    SchemeMetrics,
    FaultStats,
    CommitStats,
    CommitGroupStats,
    ReplicationStats,
)


def test_fold_keeps_list_and_dict_fields():
    """The fields a number-and-tuple fold used to reset to their
    defaults."""
    group = fold(
        [
            CommitGroupStats(quorum_rtts=[1.0, 2.0]),
            CommitGroupStats(quorum_rtts=[3.0]),
        ]
    )
    assert group.quorum_rtts == [1.0, 2.0, 3.0]
    replication = fold(
        [ReplicationStats(catchup_ms=[4.0]), ReplicationStats(catchup_ms=[5.0])]
    )
    assert replication.catchup_ms == [4.0, 5.0]
    scheme = fold(
        [
            SchemeMetrics(processed={"init": 2, "ser": 1}, waited={"ser": 1}),
            SchemeMetrics(processed={"ser": 4, "fin": 1}),
        ]
    )
    assert scheme.processed == {"init": 2, "ser": 5, "fin": 1}
    assert scheme.waited == {"ser": 1}


def test_fold_refuses_a_field_it_cannot_add():
    @dataclasses.dataclass
    class Labelled:
        count: int = 0
        label: str = ""

    with pytest.raises(TypeError, match="label"):
        fold([Labelled(1, "a"), Labelled(2, "b")])


def _stats_records(cls):
    """A strategy for *cls* from the defaults its fields declare."""
    kinds = st.sampled_from(["init", "ser", "ack", "fin"])
    by_default = {
        int: st.integers(min_value=0, max_value=10**6),
        list: st.lists(st.floats(min_value=0, max_value=1e3), max_size=4),
        dict: st.dictionaries(kinds, st.integers(min_value=0, max_value=99)),
    }
    return st.builds(
        cls,
        **{
            spec.name: by_default[
                type(
                    spec.default
                    if spec.default is not dataclasses.MISSING
                    else spec.default_factory()
                )
            ]
            for spec in dataclasses.fields(cls)
        },
    )


@pytest.mark.parametrize("cls", STATS_CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_fold_is_the_field_wise_sum(cls, data):
    first = data.draw(_stats_records(cls))
    second = data.draw(_stats_records(cls))
    assert fold([first]) == first
    folded = fold([first, second])
    for spec in dataclasses.fields(cls):
        one, other = getattr(first, spec.name), getattr(second, spec.name)
        if isinstance(one, dict):
            expected = {
                kind: one.get(kind, 0) + other.get(kind, 0)
                for kind in {*one, *other}
            }
        else:
            expected = one + other
        assert getattr(folded, spec.name) == expected, spec.name
