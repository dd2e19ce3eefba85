"""The two generic operations over *stats records* — ``SimulationReport`` and
the five stats classes in it: dataclasses of numbers, number sequences, number
dicts and nested records.  A count is named once, by its field declaration;
:func:`fold` sums records and :func:`publish` derives their registry image."""

import dataclasses
from typing import Any, Dict, Optional, Sequence

from repro.observability.registry import TIME_BUCKETS, MetricsRegistry


def fold(records: Sequence[Any], shared: Sequence[str] = ()) -> Any:
    """The field-wise sum, as one more record of the class: numbers add,
    tuples and lists concatenate, number dicts add key-wise, nested records
    fold the same way (None when no record has them); flags and the fields
    named in *shared*, at any depth, read the same in every record and take
    the maximum."""
    merged: Dict[str, Any] = {}
    for spec in dataclasses.fields(records[0]):
        values = [getattr(record, spec.name) for record in records]
        values = [value for value in values if value is not None]
        if not values:
            continue
        sample = values[0]
        if spec.name in shared or isinstance(sample, bool):
            merged[spec.name] = max(values)
        elif isinstance(sample, (int, float, tuple, list)):
            merged[spec.name] = sum(values, type(sample)())
        elif isinstance(sample, dict):
            keys = dict.fromkeys(key for value in values for key in value)
            merged[spec.name] = {k: sum(v.get(k, 0) for v in values) for k in keys}
        elif dataclasses.is_dataclass(sample):
            merged[spec.name] = fold(values, shared)
        else:
            raise TypeError(f"cannot fold field {spec.name!r}: {sample!r}")
    return type(records[0])(**merged)


def metric_segment(scheme: str) -> str:
    """A scheduler's registry name as one metric-name segment: ``scheme2``
    stays, ``scheme2-minimal`` → ``scheme2_minimal``, ``2pl-gtm`` →
    ``scheme_2pl_gtm``."""
    segment = scheme.replace("-", "_")
    return segment if segment[:1].isalpha() else f"scheme_{segment}"


def publish(
    record: Any,
    registry: Optional[MetricsRegistry] = None,
    scheme: str = "",
    skip: Sequence[str] = (),
) -> MetricsRegistry:
    """Add *record* to *registry*.  A field is named ``<metric_prefix of the
    class>.<field>`` unless its ``metric`` metadata gives another template
    (``{scheme}`` for per-scheme counters, None for a field left out).  A
    number is a counter, or the gauge ``gauge(value)`` if the metadata has one;
    a sequence a histogram (``peak`` names a gauge keeping its maximum); a dict
    a total plus one counter per key; a nested record recurses, less ``skip``."""
    out = registry if registry is not None else MetricsRegistry()
    prefix = record.metric_prefix
    segment = metric_segment(scheme) if scheme else prefix
    for spec in dataclasses.fields(record):
        value, meta = getattr(record, spec.name), spec.metadata
        template = meta.get("metric", "{prefix}.{field}")
        if value is None or template is None or spec.name in skip:
            continue
        name = template.format(prefix=prefix, field=spec.name, scheme=segment)
        if dataclasses.is_dataclass(value):
            publish(value, out, scheme, meta.get("skip", ()))
        elif "gauge" in meta:
            out.gauge(name).set(meta["gauge"](value))
        elif isinstance(value, (tuple, list)):
            histogram = out.histogram(name, TIME_BUCKETS)
            for observation in value:
                histogram.observe(observation)
            if "peak" in meta:
                peak = out.gauge(meta["peak"])
                peak.set(max([peak.value, *value]))
        elif isinstance(value, dict):
            out.counter(name).inc(sum(value.values()))
            for key in sorted(value):
                out.counter(f"{name}.{key}").inc(value[key])
        else:
            out.counter(name).inc(value)
    return out


#: ``publish`` of one ``SchemeMetrics``: ``gtm.*`` (+ ``<scheme>.*``)
scheme_metrics_to_registry = publish


def report_to_registry(
    report: Any, registry: Optional[MetricsRegistry] = None, scheme: str = ""
) -> MetricsRegistry:
    """Publish one run's ``SimulationReport`` and count the run."""
    out = publish(report, registry, scheme)
    out.counter("sim.runs").inc()
    if scheme:
        out.counter(f"{metric_segment(scheme)}.runs").inc()
    return out
