"""Tests for repro.observability: the unified metrics registry, the
span tracer (determinism, zero overhead when disabled, replay against
ser(S)), the --explain cause chains, and the CLI integration points
that CI's chaos-smoke assertion relies on."""

import dataclasses
import json

import pytest

from repro.baselines import BASELINES
from repro.cli import main
from repro.core import SCHEMES, make_scheme
from repro.faults.model import FaultStats
from repro.observability import (
    MetricsRegistry,
    Tracer,
    explain_transaction,
    fold,
    parse_prometheus,
    publish,
    replay_check,
    report_to_registry,
    scheme_metrics_to_registry,
)
from repro.observability.export import metric_segment
from repro.observability.registry import DEFAULT_BUCKETS
from repro.replication import ReplicationStats
from repro.workloads.traces import adversarial_trace, drive, random_trace
from tests.reference import export_by_hand
from tests.support import spans_from_jsonl
from tests.test_fastpath_equivalence import (
    GROUP_STORM,
    REPLICATION_STORM,
    chaos_cell,
)


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("gtm.waits").inc()
        registry.counter("gtm.waits").inc(4)
        assert registry.counter("gtm.waits").value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("gtm.waits").inc(-1)

    def test_gauge_sets(self):
        registry = MetricsRegistry()
        registry.gauge("sim.duration").set(60.0)
        registry.gauge("sim.duration").set(42.0)
        assert registry.gauge("sim.duration").value == 42.0

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("Bad Name")
        with pytest.raises(ValueError):
            registry.counter(".leading.dot")

    def test_family_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("gtm.waits")
        with pytest.raises(ValueError):
            registry.gauge("gtm.waits")
        with pytest.raises(ValueError):
            registry.histogram("gtm.waits", DEFAULT_BUCKETS)

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("commit.latency_ms", (1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1]
        dump = registry.render_prometheus()
        assert 'commit_latency_ms_bucket{le="1"} 2' in dump
        assert 'commit_latency_ms_bucket{le="5"} 3' in dump
        assert histogram.inf_count == 1  # only 100.0 exceeds every edge
        assert histogram.count == 4
        assert histogram.total == pytest.approx(104.2)

    def test_histogram_redeclare_same_buckets_ok(self):
        registry = MetricsRegistry()
        first = registry.histogram("h.x", (1.0, 2.0))
        assert registry.histogram("h.x", (1.0, 2.0)) is first
        with pytest.raises(ValueError):
            registry.histogram("h.x", (1.0, 3.0))

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("faults.retries").inc(7)
        registry.gauge("sim.quarantined_sites").set(2)
        registry.histogram("sim.response_time", (1.0, 10.0)).observe(3.5)
        restored = MetricsRegistry.from_snapshot(registry.snapshot())
        assert restored.snapshot() == registry.snapshot()
        assert restored.render_prometheus() == registry.render_prometheus()

    def test_snapshot_survives_json(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(3)
        registry.histogram("c.d", (1.0,)).observe(0.5)
        payload = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
        restored = MetricsRegistry.from_snapshot(payload)
        assert restored.counter("a.b").value == 3

    def test_merge_semantics(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.counter("faults.retries").inc(2)
        right.counter("faults.retries").inc(3)
        left.gauge("sim.quarantined_sites").set(1)
        right.gauge("sim.quarantined_sites").set(4)
        left.histogram("h.v", (1.0,)).observe(0.5)
        right.histogram("h.v", (1.0,)).observe(2.0)
        left.merge(right)
        # counters and histograms add; gauges keep the max
        assert left.counter("faults.retries").value == 5
        assert left.gauge("sim.quarantined_sites").value == 4
        merged_histogram = left.histogram("h.v", (1.0,))
        assert merged_histogram.count == 2
        assert merged_histogram.inf_count == 1  # only the 2.0 observation

    def test_prometheus_dump_parses(self):
        registry = MetricsRegistry()
        registry.counter("faults.retries").inc(9)
        registry.histogram("commit.indoubt_ms", (5.0, 50.0)).observe(7.0)
        text = registry.render_prometheus()
        assert "# TYPE faults_retries counter" in text
        values = parse_prometheus(text)
        assert values["faults_retries"] == 9
        assert values['commit_indoubt_ms_bucket{le="50"}'] == 1
        assert values['commit_indoubt_ms_bucket{le="+Inf"}'] == 1
        assert values["commit_indoubt_ms_count"] == 1

    def test_integer_values_render_without_decimal(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(3)
        assert "a_b 3\n" in registry.render_prometheus()


class TestTracerDeterminism:
    def _traced_jsonl(self):
        trace = random_trace(8, 3, 2, seed=0)
        tracer = Tracer()
        drive(make_scheme("scheme2"), trace, tracer=tracer)
        return tracer.to_jsonl()

    def test_same_seed_byte_identical_jsonl(self):
        assert self._traced_jsonl() == self._traced_jsonl()

    def test_jsonl_round_trip(self):
        text = self._traced_jsonl()
        spans = spans_from_jsonl(text)
        rebuilt = "\n".join(
            json.dumps(span.to_dict(), sort_keys=True) for span in spans
        )
        assert rebuilt == text.rstrip("\n")

    @pytest.mark.parametrize("name", [*SCHEMES, *BASELINES])
    def test_tracing_does_not_change_decisions(self, name):
        trace = random_trace(8, 3, 2, seed=0)
        plain = drive(make_scheme(name), random_trace(8, 3, 2, seed=0))
        tracer = Tracer()
        traced = drive(make_scheme(name), trace, tracer=tracer)
        assert tracer.spans
        assert traced.metrics == plain.metrics
        assert [
            (op.transaction_id, op.site) for op in traced.ser_schedule
        ] == [(op.transaction_id, op.site) for op in plain.ser_schedule]
        assert traced.submission_order == plain.submission_order
        assert traced.aborted == plain.aborted

    @pytest.mark.parametrize(
        "scheme_name",
        ["scheme0", "scheme1", "scheme2", "scheme3", "scheme4"],
    )
    def test_replay_matches_ser_schedule(self, scheme_name):
        tracer = Tracer()
        result = drive(
            make_scheme(scheme_name),
            random_trace(10, 3, 2, seed=4),
            tracer=tracer,
        )
        assert not result.aborted
        problems = replay_check(
            tracer.spans,
            [(op.transaction_id, op.site) for op in result.ser_schedule],
        )
        assert problems == []

    def test_replay_detects_reordering(self):
        tracer = Tracer()
        result = drive(
            make_scheme("scheme2"), random_trace(6, 2, 2, seed=1), tracer=tracer
        )
        schedule = [
            (op.transaction_id, op.site) for op in result.ser_schedule
        ]
        schedule[0], schedule[1] = schedule[1], schedule[0]
        assert replay_check(tracer.spans, schedule) != []


class TestExplain:
    def test_scheme2_names_blocking_tsgd_edge(self):
        tracer = Tracer()
        drive(make_scheme("scheme2"), random_trace(8, 3, 2, seed=0), tracer=tracer)
        waited = [
            span
            for span in tracer.spans
            if span.name == "gtm.wait" and span.cause is not None
        ]
        assert waited, "seed 0 workload should produce at least one wait"
        text = explain_transaction(tracer.spans, waited[0].txn)
        assert "WAIT" in text
        assert "TSGD edge" in text or "ser_bef" in text
        assert "GRANT" in text

    def test_scheme3_names_ser_bef_constraint(self):
        tracer = Tracer()
        drive(make_scheme("scheme3"), random_trace(10, 3, 2, seed=2), tracer=tracer)
        causes = {
            span.cause["type"]
            for span in tracer.spans
            if span.name == "gtm.wait" and span.cause
        }
        assert causes & {"ser-bef", "ser-bef-nonempty", "one-outstanding"}

    def test_scheme4_names_plan_position(self):
        tracer = Tracer()
        drive(
            make_scheme("scheme4"),
            adversarial_trace(12, 3, 2, seed=1),
            tracer=tracer,
        )
        waited = [
            span
            for span in tracer.spans
            if span.name == "gtm.wait"
            and span.cause
            and span.cause["type"] == "batch-plan-order"
        ]
        assert waited, "adversarial workload should hit the plan chain"
        text = explain_transaction(tracer.spans, waited[0].txn)
        assert "batch plan" in text
        assert "planned" in text and "chain" in text

    def test_scheme4_open_batch_cause_rendered(self):
        from repro.observability.explain import format_cause

        line = format_cause(
            {"type": "batch-open", "site": "s1", "after": "G7"}
        )
        assert "batch seal" in line and "G7" in line and "s1" in line

    def test_unknown_transaction_lists_known(self):
        tracer = Tracer()
        drive(make_scheme("scheme0"), random_trace(4, 2, 2, seed=0), tracer=tracer)
        text = explain_transaction(tracer.spans, "NOPE")
        assert "no trace recorded" in text
        assert "G0" in text


#: the report fields with no registry image: a flag, the raw outage
#: windows, and the two scheme counters the report restates as totals
#: over the scheme and the sites
NOT_PUBLISHED = {
    ("atomic_commit",),
    ("availability_windows",),
    ("scheme", "graph_ops"),
    ("scheme", "dfs_steps_avoided"),
}


def _samples(registry):
    return parse_prometheus(registry.render_prometheus())


def _assert_covers(oracle, registry):
    expected, published = _samples(oracle), _samples(registry)
    assert {name: published.get(name) for name in expected} == expected


def _leaf_paths(record, above=()):
    for spec in dataclasses.fields(record):
        value = getattr(record, spec.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, above + (spec.name,))
        else:
            yield above + (spec.name,)


def _bumped(record, path):
    """A copy of *record* with the field at *path* changed by one unit."""
    value = getattr(record, path[0])
    if len(path) > 1:
        changed = _bumped(value, path[1:])
    elif isinstance(value, bool):
        changed = not value
    elif isinstance(value, (int, float)):
        changed = value + 1
    elif isinstance(value, dict):
        changed = {**value, "fin": value.get("fin", 0) + 1}
    elif value and isinstance(value[0], str):
        changed = (*value, "s9")
    elif value and isinstance(value[0], tuple):
        changed = (*value, ("s9", 1.0, 2.0))
    else:
        # a field that is None here has no probe value: build that layer
        changed = type(value)([*value, 7.0])
    return dataclasses.replace(record, **{path[0]: changed})


class TestExport:
    def test_scheme_metrics_to_registry(self):
        result = drive(make_scheme("scheme2"), random_trace(8, 3, 2, seed=0))
        registry = scheme_metrics_to_registry(result.metrics, scheme="scheme2")
        values = parse_prometheus(registry.render_prometheus())
        assert values["gtm_steps"] == result.metrics.steps
        assert values["gtm_waits"] == sum(result.metrics.waited.values())
        assert values["scheme2_delta_edges"] == result.metrics.delta_edges
        assert result.metrics.delta_edges > 0

    def test_report_to_registry(self):
        from repro.faults.chaos import ChaosOptions, run_chaos
        from repro.observability import report_to_registry

        chaos = run_chaos(ChaosOptions(scheme="scheme2"), 0)
        registry = report_to_registry(chaos.report, scheme="scheme2")
        values = parse_prometheus(registry.render_prometheus())
        assert values["sim_committed_global"] == chaos.report.committed_global
        assert values["faults_retries"] >= 0
        assert values["scheme2_runs"] == 1

    @pytest.mark.parametrize("name", [*SCHEMES, *BASELINES])
    def test_every_registered_name_publishes(self, name):
        """A run under any scheduler publishes its report: the registry
        name becomes one metric segment, and the paper schemes keep theirs
        (``scheme2.delta_edges``, ``scheme4.batches_planned``)."""
        _digests, report = chaos_cell("scheme2", 11)
        samples = _samples(report_to_registry(report, scheme=name))
        segment = metric_segment(name)
        assert samples[f"{segment}_runs"] == 1
        assert f"{segment}_delta_edges" in samples
        assert f"{segment}_batches_planned" in samples
        if name in ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4"):
            assert segment == name

    @pytest.mark.parametrize(
        "seed, storm",
        [(11, {}), (26, GROUP_STORM), (7, REPLICATION_STORM)],
        ids=["plain", "group", "replication"],
    )
    def test_published_report_covers_the_hand_written_dump(self, seed, storm):
        """The golden-digest chaos cells: every sample the field-by-field
        adapters produced is in ``publish``'s dump, with an equal value."""
        _digests, report = chaos_cell("scheme2", seed, **storm)
        _assert_covers(
            export_by_hand.report_to_registry(report, scheme="scheme2"),
            report_to_registry(report, scheme="scheme2"),
        )

    def test_published_scheme_metrics_cover_the_hand_written_dump(self):
        result = drive(make_scheme("scheme4"), random_trace(8, 3, 2, seed=0))
        assert result.metrics.batches_planned > 0
        _assert_covers(
            export_by_hand.scheme_metrics_to_registry(
                result.metrics, scheme="scheme4"
            ),
            scheme_metrics_to_registry(result.metrics, scheme="scheme4"),
        )

    def test_no_report_field_is_left_behind(self):
        """Changing any field of the report, or of a record nested in it,
        changes the dump — unless the field is named in NOT_PUBLISHED."""
        _digests, report = chaos_cell("scheme2", 26, **GROUP_STORM)
        report = dataclasses.replace(report, replication=ReplicationStats())
        baseline = _samples(publish(report, scheme="scheme2"))
        silent = {
            path
            for path in _leaf_paths(report)
            if _samples(publish(_bumped(report, path), scheme="scheme2"))
            == baseline
        }
        assert silent == NOT_PUBLISHED

    def test_a_new_field_needs_no_other_edit(self):
        """A count declared on a stats record reaches the folded record,
        the registry and the dump with ``fold`` and ``publish`` as they
        are — alone or nested in a report."""

        @dataclasses.dataclass
        class ProbedFaultStats(FaultStats):
            probes_sent: int = 0

        stats = fold(
            [ProbedFaultStats(probes_sent=2), ProbedFaultStats(probes_sent=3)]
        )
        assert stats.probes_sent == 5
        assert _samples(publish(stats))["faults_probes_sent"] == 5
        _digests, report = chaos_cell("scheme2", 11)
        report = dataclasses.replace(report, fault_stats=stats)
        sharded = fold([report, report], shared=("duration",))
        assert sharded.fault_stats.probes_sent == 10
        assert _samples(report_to_registry(sharded))["faults_probes_sent"] == 10

    def test_bench_results_to_registry(self):
        from repro.analysis.bench import results_to_registry

        cells = [
            {
                "scheme": "scheme2",
                "committed": 10,
                "events": 100,
                "scheme_steps": 50,
                "graph_ops": 5,
                "dfs_steps_avoided": 2,
                "wake_retries_skipped": 1,
                "wall_s": 0.25,
            }
        ] * 2
        values = parse_prometheus(
            results_to_registry(cells).render_prometheus()
        )
        assert values["bench_cells"] == 2
        assert values["bench_committed"] == 20
        assert values["gtm_steps"] == 100
        assert values["scheme2_cells"] == 2


class TestCLI:
    def test_trace_explain_deterministic(self, capsys):
        argv = [
            "trace",
            "--scheme",
            "scheme2",
            "--seed",
            "0",
            "--explain",
            "G3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "causal chain for G3" in first
        assert "trace replay matches ser(S)" in first

    def test_trace_jsonl_written(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--scheme",
                    "scheme1",
                    "--seed",
                    "1",
                    "--jsonl",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        spans = spans_from_jsonl(path.read_text())
        assert any(span.name == "site.submit" for span in spans)

    def test_chaos_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        rc = main(
            [
                "chaos",
                "--runs",
                "2",
                "--schemes",
                "scheme2",
                "--loss-rate",
                "0.2",
                "--seed",
                "0",
                "--metrics-out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        values = parse_prometheus(path.read_text())
        assert values["faults_retries"] > 0
        assert values["chaos_runs"] == 2

    def test_chaos_dump_carries_the_planning_counters(self, tmp_path, capsys):
        """The CI chaos-smoke assertion, on a storm small enough for
        tier 1: the scheme's own record is in the dump."""
        path = tmp_path / "metrics.prom"
        rc = main(
            [
                "chaos",
                "--schemes",
                "scheme2",
                "scheme4",
                "--runs",
                "2",
                "--loss-rate",
                "0.2",
                "--metrics-out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        values = parse_prometheus(path.read_text())
        assert values["scheme4_batches_planned"] > 0
        assert "scheme2_delta_edges" in values
        assert values["gtm_wait_ticks"] >= 0 and values["gtm_processed_fin"] > 0
        assert values["faults_retries"] > 0
        assert values.get("chaos_violations", 0) == 0
