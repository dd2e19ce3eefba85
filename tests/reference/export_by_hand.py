"""The registry adapters as they were written by hand, field by field.

``repro.observability.export.publish`` derives the registry image of a
stats record from its field declarations.  This module keeps what it
replaced — the ``*_to_registry`` adapters naming every metric, over the
four ``as_rows()`` lists the stats classes carried — as the oracle:
every sample these produce must be in ``publish``'s dump with an equal
value (``tests/test_observability.py``).

=====================  =================================================
namespace              source
=====================  =================================================
``gtm.*``              SchemeMetrics (steps, waits, wait ticks, ...)
``<scheme>.*``         scheme-specific counters (``scheme2.delta_edges``)
``sim.*``              SimulationReport outcome counters + histograms
``faults.*``           FaultStats (one metric per field)
``commit.*``           CommitStats + in-doubt / commit-latency histograms
=====================  =================================================
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.observability.registry import MetricsRegistry


def _all_rows(stats: Any) -> Any:
    """``FaultStats.as_rows`` / ``CommitStats.as_rows``: every field."""
    return tuple(
        (spec.name, getattr(stats, spec.name))
        for spec in dataclasses.fields(stats)
    )


def _group_rows(stats: Any) -> Any:
    """``CommitGroupStats.as_rows``: every field but the RTT samples."""
    return tuple(row for row in _all_rows(stats) if row[0] != "quorum_rtts")


def _replication_rows(stats: Any) -> Any:
    """``ReplicationStats.as_rows``: the scalar counters, by name."""
    return (
        ("writes_fanout", stats.writes_fanout),
        ("reads_routed", stats.reads_routed),
        ("stale_reads_refused", stats.stale_reads_refused),
        ("route_retries", stats.route_retries),
        ("snapshot_reads", stats.snapshot_reads),
    )

#: Bucket edges for simulated-time histograms (response / in-doubt /
#: commit latencies).  Simulated clocks run 0..~hundreds, so the edges
#: sit an order of magnitude below the registry default.
TIME_BUCKETS = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)


def scheme_metrics_to_registry(
    metrics: Any,
    registry: Optional[MetricsRegistry] = None,
    scheme: str = "",
) -> MetricsRegistry:
    """Publish one ``SchemeMetrics`` under ``gtm.*`` (+ ``<scheme>.*``)."""
    out = registry if registry is not None else MetricsRegistry()
    out.counter("gtm.steps").inc(metrics.steps)
    out.counter("gtm.processed").inc(metrics.total_processed)
    out.counter("gtm.waits").inc(metrics.total_waited)
    out.counter("gtm.wait_ticks").inc(metrics.wait_ticks)
    out.counter("gtm.transactions").inc(metrics.transactions_finished)
    out.counter("gtm.graph_ops").inc(metrics.graph_ops)
    out.counter("gtm.dfs_steps_avoided").inc(metrics.dfs_steps_avoided)
    out.counter("gtm.wake_retries_skipped").inc(metrics.wake_retries_skipped)
    for kind in sorted(metrics.processed):
        out.counter(f"gtm.processed.{kind}").inc(metrics.processed[kind])
    for kind in sorted(metrics.waited):
        out.counter(f"gtm.waits.{kind}").inc(metrics.waited[kind])
    if scheme and getattr(metrics, "delta_edges", 0):
        out.counter(f"{scheme}.delta_edges").inc(metrics.delta_edges)
    if scheme and getattr(metrics, "batches_planned", 0):
        out.counter(f"{scheme}.batches_planned").inc(metrics.batches_planned)
        out.counter(f"{scheme}.plan_edges").inc(metrics.plan_edges)
    return out


def fault_stats_to_registry(
    stats: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Publish a ``FaultStats`` as one ``faults.<field>`` counter each."""
    out = registry if registry is not None else MetricsRegistry()
    for name, value in _all_rows(stats):
        out.counter(f"faults.{name}").inc(value)
    return out


def commit_stats_to_registry(
    stats: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Publish a ``CommitStats`` as one ``commit.<field>`` counter each."""
    out = registry if registry is not None else MetricsRegistry()
    for name, value in _all_rows(stats):
        out.counter(f"commit.{name}").inc(value)
    return out


def commit_group_stats_to_registry(
    stats: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Publish a ``CommitGroupStats`` as one ``commit_group.<field>``
    counter each, plus the ``commit_group.quorum_rtt`` histogram of
    vote/decision quorum round-trip times."""
    out = registry if registry is not None else MetricsRegistry()
    for name, value in _group_rows(stats):
        out.counter(f"commit_group.{name}").inc(value)
    rtt = out.histogram("commit_group.quorum_rtt", TIME_BUCKETS)
    for value in stats.quorum_rtts:
        rtt.observe(value)
    return out


def replication_stats_to_registry(
    stats: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Publish a ``ReplicationStats`` under ``replication.*`` plus the
    ``recovery.catchup_ms`` catch-up-latency histogram."""
    out = registry if registry is not None else MetricsRegistry()
    for name, value in _replication_rows(stats):
        out.counter(f"replication.{name}").inc(value)
    catchup = out.histogram("recovery.catchup_ms", TIME_BUCKETS)
    for value in stats.catchup_ms:
        catchup.observe(value)
    return out


def report_to_registry(
    report: Any,
    registry: Optional[MetricsRegistry] = None,
    scheme: str = "",
) -> MetricsRegistry:
    """Publish a full ``SimulationReport`` into a registry.

    Covers the simulation outcome (``sim.*``), the fault layer
    (``faults.*``) and the atomic-commitment layer (``commit.*``,
    including the ``commit.indoubt_ms`` and ``commit.latency_ms``
    histograms) when those layers ran.
    """
    out = registry if registry is not None else MetricsRegistry()
    out.counter("sim.runs").inc()
    out.counter("sim.committed_global").inc(report.committed_global)
    out.counter("sim.failed_global").inc(report.failed_global)
    out.counter("sim.global_aborts").inc(report.global_aborts)
    out.counter("sim.committed_local").inc(report.committed_local)
    out.counter("sim.local_aborts").inc(report.local_aborts)
    out.counter("sim.watchdog_aborts").inc(report.watchdog_aborts)
    out.counter("sim.events_executed").inc(report.events_executed)
    out.gauge("sim.duration").set(report.duration)
    out.gauge("sim.quarantined_sites").set(len(report.quarantined_sites))
    out.counter("gtm.steps").inc(report.scheme_steps)
    out.counter("gtm.waits").inc(report.scheme_waits)
    out.counter("gtm.graph_ops").inc(report.graph_ops)
    out.counter("gtm.dfs_steps_avoided").inc(report.dfs_steps_avoided)
    out.counter("gtm.wake_retries_skipped").inc(report.wake_retries_skipped)
    out.counter("gtm.wait_area").inc(getattr(report, "wait_area", 0))
    out.counter("gtm.wait_samples").inc(getattr(report, "wait_samples", 0))
    response = out.histogram("sim.response_time", TIME_BUCKETS)
    for value in report.response_times:
        response.observe(value)
    if report.fault_stats is not None:
        fault_stats_to_registry(report.fault_stats, out)
    if report.commit_stats is not None:
        commit_stats_to_registry(report.commit_stats, out)
    if report.atomic_commit:
        indoubt = out.histogram("commit.indoubt_ms", TIME_BUCKETS)
        for value in report.in_doubt_times:
            indoubt.observe(value)
        latency = out.histogram("commit.latency_ms", TIME_BUCKETS)
        for value in report.commit_latencies:
            latency.observe(value)
        # worst in-doubt window as a gauge (gauge merge keeps the max),
        # so CI can compare group sizes head-to-head from parsed text
        worst = out.gauge("commit.indoubt_max")
        worst.set(max([worst.value, *report.in_doubt_times]))
    if getattr(report, "commit_group", None) is not None:
        commit_group_stats_to_registry(report.commit_group, out)
        out.gauge("commit_group.size").set(report.commit_group_size)
    if getattr(report, "replication", None) is not None:
        replication_stats_to_registry(report.replication, out)
        out.counter("replication.snapshot_committed").inc(
            report.snapshot_committed
        )
        out.counter("replication.snapshot_failed").inc(
            report.snapshot_failed
        )
        snap = out.histogram("replication.snapshot_time", TIME_BUCKETS)
        for value in report.snapshot_read_times:
            snap.observe(value)
    if scheme:
        out.counter(f"{scheme}.runs").inc()
    return out
