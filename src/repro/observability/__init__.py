"""Observability layer: structured tracing + unified metrics registry.

This package is the repo's single answer to "why did that global
transaction wait, abort, or block in-doubt?" and "what did the run
count?".  It has two halves:

* :mod:`repro.observability.tracer` — a span-style structured tracer
  of the GTM2 ``Engine``, the one traced component.  Every GTM2
  decision point (init, cond/act evaluation, WAIT, GRANT, the ser-op
  forwarded to its site, purge) becomes a parent-linked span with a
  *cause* record attributing the decision to the blocking TSGD edge,
  ser_bef constraint, or queue conflict.  The tracer is
  seed-deterministic (ids and timestamps come from its own event
  counter, never the wall clock) and zero-cost when disabled: the
  engine holds ``tracer=None`` and guards with a single ``is not None``
  check.

* :mod:`repro.observability.registry` — a unified metrics registry
  (counters, gauges, histograms with fixed bucket edges) behind one
  namespaced API (``gtm.waits``, ``scheme2.delta_edges``,
  ``commit.indoubt_ms``, ``faults.retries``, ...), with a
  Prometheus-style text dump, JSON snapshot/restore, and cross-run
  merge.  :mod:`repro.observability.export` derives a stats record's
  place in that namespace from its field declarations (``publish``) and
  sums records field by field (``fold``).

:mod:`repro.observability.explain` renders one transaction's causal
WAIT/GRANT chain from a recorded trace (the ``repro trace --explain``
backend).
"""

from repro.observability.explain import explain_transaction, format_cause
from repro.observability.export import (
    fold,
    publish,
    report_to_registry,
    scheme_metrics_to_registry,
)
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.observability.tracer import Span, Tracer, replay_check

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "explain_transaction",
    "fold",
    "format_cause",
    "parse_prometheus",
    "publish",
    "replay_check",
    "report_to_registry",
    "scheme_metrics_to_registry",
]
