"""Unified metrics registry: counters, gauges, and histograms.

One process-local registry holds the image of the stats records
(``SchemeMetrics``, ``SimulationReport``, ``FaultStats``, ``CommitStats``,
...) that :func:`repro.observability.export.publish` derives from their
field declarations.  Names are dotted namespaces (``gtm.waits``,
``scheme2.delta_edges``, ``commit.indoubt_ms``); rendering mangles the
dots to underscores so the text dump is Prometheus-compatible.

Everything here is deterministic: histograms use *fixed* bucket edges
(no adaptive resizing), dumps are sorted by metric name, and numbers
render as integers whenever they are integral so that two runs with the
same seed produce byte-identical dumps.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Default histogram bucket edges (milliseconds-ish scale); fixed so
#: that merged dumps from different runs always line up bucket-for-bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.5,
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
    2500.0,
    5000.0,
)

#: Bucket edges for simulated-time histograms (response / in-doubt /
#: commit latencies).  Simulated clocks run 0..~hundreds, so the edges
#: sit an order of magnitude below the default.
TIME_BUCKETS: Tuple[float, ...] = (
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


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_number(value: Number) -> str:
    if isinstance(value, bool):  # bools are ints; refuse the ambiguity
        raise TypeError("metric values must be numbers, not bool")
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_edge(edge: float) -> str:
    return _format_number(edge)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0) -> None:
        self.name = _check_name(name)
        self.value: Number = value

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value; merge keeps the maximum across runs."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0) -> None:
        self.name = _check_name(name)
        self.value: Number = value

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram (cumulative, Prometheus-style).

    ``counts[i]`` is the number of observations in
    ``(buckets[i-1], buckets[i]]``; one implicit ``+Inf`` bucket catches
    the rest, and the Prometheus dump renders them cumulatively.  Bucket
    edges never change after construction, which keeps merges
    well-defined and dumps deterministic.
    """

    __slots__ = ("name", "buckets", "counts", "inf_count", "total", "count")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = _check_name(name)
        edges = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name}: bucket edges must be sorted")
        self.buckets: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * len(edges)
        self.inf_count = 0
        self.total: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[index] += 1
                return
        self.inf_count += 1


class MetricsRegistry:
    """The one namespaced home for every counter the repro records."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- metric accessors (get-or-create) ---------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._ensure_unclaimed(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._ensure_unclaimed(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._ensure_unclaimed(name, "histogram")
            metric = self._histograms[name] = Histogram(name, buckets)
        elif buckets is not None and tuple(buckets) != metric.buckets:
            raise ValueError(f"histogram {name} re-declared with different buckets")
        return metric

    def _ensure_unclaimed(self, name: str, kind: str) -> None:
        for family, metrics in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if family != kind and name in metrics:
                raise ValueError(f"metric {name} already registered as a {family}")

    # -- snapshot / merge -------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able snapshot; :meth:`from_snapshot` round-trips it."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "inf_count": metric.inf_count,
                    "total": metric.total,
                    "count": metric.count,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        counters = snapshot.get("counters", {})
        assert isinstance(counters, Mapping)
        for name, value in counters.items():
            assert isinstance(value, (int, float))
            registry.counter(name).inc(value)
        gauges = snapshot.get("gauges", {})
        assert isinstance(gauges, Mapping)
        for name, value in gauges.items():
            assert isinstance(value, (int, float))
            registry.gauge(name).set(value)
        histograms = snapshot.get("histograms", {})
        assert isinstance(histograms, Mapping)
        for name, payload in histograms.items():
            assert isinstance(payload, Mapping)
            buckets = payload["buckets"]
            assert isinstance(buckets, list)
            histogram = registry.histogram(name, buckets)
            counts = payload["counts"]
            assert isinstance(counts, list)
            histogram.counts = [int(count) for count in counts]
            inf_count = payload["inf_count"]
            assert isinstance(inf_count, int)
            histogram.inf_count = inf_count
            total = payload["total"]
            assert isinstance(total, (int, float))
            histogram.total = total
            count = payload["count"]
            assert isinstance(count, int)
            histogram.count = count
        return registry

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (for multi-run aggregation).

        Counters and histograms add; gauges keep the maximum, which is
        the useful aggregate for the point-in-time values we track
        (durations, high-water marks).
        """
        for name, metric in other._counters.items():
            self.counter(name).inc(metric.value)
        for name, metric in other._gauges.items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, metric.value))
        for name, metric in other._histograms.items():
            histogram = self.histogram(name, metric.buckets)
            for index, bucket_count in enumerate(metric.counts):
                histogram.counts[index] += bucket_count
            histogram.inf_count += metric.inf_count
            histogram.total += metric.total
            histogram.count += metric.count

    # -- rendering --------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text-format dump (dots mangled to underscores).

        Output is sorted by metric name and numerically canonical, so
        equal registries render byte-identically.
        """
        lines: List[str] = []
        families: List[Tuple[str, str, object]] = []
        for name, counter in self._counters.items():
            families.append((name, "counter", counter))
        for name, gauge in self._gauges.items():
            families.append((name, "gauge", gauge))
        for name, histogram in self._histograms.items():
            families.append((name, "histogram", histogram))
        for name, kind, metric in sorted(families, key=lambda item: item[0]):
            flat = name.replace(".", "_")
            lines.append(f"# TYPE {flat} {kind}")
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{flat} {_format_number(metric.value)}")
            else:
                assert isinstance(metric, Histogram)
                running = 0
                for edge, bucket_count in zip(metric.buckets, metric.counts):
                    running += bucket_count
                    lines.append(
                        f'{flat}_bucket{{le="{_format_edge(edge)}"}} {running}'
                    )
                running += metric.inf_count
                lines.append(f'{flat}_bucket{{le="+Inf"}} {running}')
                lines.append(f"{flat}_sum {_format_number(metric.total)}")
                lines.append(f"{flat}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse a Prometheus text dump back into ``{sample_name: value}``.

    Histogram bucket samples keep their ``le`` label in the key, e.g.
    ``commit_indoubt_ms_bucket{le="+Inf"}``.  Used by the CI smoke
    assertion and by tests; tolerates comments and blank lines.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"unparseable metrics line: {line!r}")
        samples[name] = float(value)
    return samples


def merged(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Merge many registries into a fresh one (order-insensitive for
    counters and histograms; gauges keep the overall maximum)."""
    out = MetricsRegistry()
    for registry in registries:
        out.merge(registry)
    return out
