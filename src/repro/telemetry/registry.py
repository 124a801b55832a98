"""Mergeable, thread-safe metrics: counters, gauges, fixed-bucket histograms.

The observability layer's ground truth is a :class:`MetricsRegistry` — a
named collection of three metric kinds shared by every runtime component:

* :class:`Counter` — a monotonically increasing float (bins processed,
  events emitted, recalibrations run);
* :class:`Gauge` — a point-in-time value (the adaptive scale, a leaf's
  lag) that merges last-writer-wins;
* :class:`Histogram` — fixed upper-bound buckets plus a running sum/count
  (per-stage latencies), so two runs' distributions add bucket-wise.

Registries **merge**: a restored run folds the registry saved in its
checkpoint into its fresh one with :meth:`~MetricsRegistry.merge` — the
same discipline as the moment algebra, and (for counters and histograms)
associative and commutative in the same way, which is what
``tests/test_telemetry.py`` property-checks.

Metric identity is ``(name, labels)`` where labels is a frozen mapping
(Prometheus-style dimensions: ``{"type": "bytes"}``, ``{"stage":
"detect"}``).  Everything is dependency-free and JSON-serializable, so a
registry travels through checkpoint manifests and snapshot files
unchanged.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.utils.validation import require

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "prometheus_exposition", "DEFAULT_LATENCY_BUCKETS"]

#: Upper bounds (seconds) of the per-stage latency histograms: µs-scale
#: guards through multi-second recalibrations, roughly ×4 per step.
DEFAULT_LATENCY_BUCKETS = (0.0001, 0.0005, 0.002, 0.008, 0.032, 0.128,
                           0.512, 2.048, 8.192)

_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> _LabelsKey:
    """Canonical (sorted, stringified) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing float; merge is addition."""

    kind = "counter"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount

    def merge(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def restore(self, data: Mapping[str, object]) -> None:
        self.value = float(data["value"])


class Gauge:
    """A point-in-time value; a merge keeps the side set last in merge
    order (the merged-in side, if it was ever set)."""

    kind = "gauge"

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.value = 0.0
        self.n_sets = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.n_sets += 1

    def merge(self, other: "Gauge") -> None:
        with self._lock:
            if other.n_sets == 0:
                return
            self.value = other.value
            self.n_sets += other.n_sets

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value,
                "n_sets": self.n_sets}

    def restore(self, data: Mapping[str, object]) -> None:
        self.value = float(data["value"])
        self.n_sets = int(data["n_sets"])


class Histogram:
    """Fixed-bucket histogram with cumulative-compatible counts.

    ``bounds`` are the finite upper bucket edges (ascending); an implicit
    ``+Inf`` bucket catches the overflow.  ``counts[i]`` is the number of
    observations in ``(bounds[i-1], bounds[i]]`` (*not* cumulative — the
    Prometheus formatter accumulates on the way out), so merging two
    histograms is element-wise addition.
    """

    kind = "histogram"

    def __init__(self, lock: threading.RLock,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        require(len(bounds) >= 1, "a histogram needs at least one bucket")
        require(all(a < b for a, b in zip(bounds, bounds[1:])),
                "histogram bounds must be strictly ascending")
        self._lock = lock
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bucket whose edge is >= value; NaN and values past the
        # last edge fail the guard and land in the +Inf bucket.
        bounds = self.bounds
        index = bisect_left(bounds, value) if value <= bounds[-1] else len(bounds)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket
        holding the ``q``-th observation; the last finite edge for the
        overflow bucket)."""
        require(0.0 <= q <= 1.0, "quantile level must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        require(other.bounds == self.bounds,
                "cannot merge histograms with different bucket bounds")
        with self._lock:
            for i, bucket_count in enumerate(other.counts):
                self.counts[i] += bucket_count
            self.total += other.total
            self.count += other.count

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "bounds": list(self.bounds),
                "counts": list(self.counts), "total": self.total,
                "count": self.count}

    def restore(self, data: Mapping[str, object]) -> None:
        require(tuple(float(b) for b in data["bounds"]) == self.bounds,
                "cannot restore histogram with different bucket bounds")
        self.counts = [int(c) for c in data["counts"]]
        self.total = float(data["total"])
        self.count = int(data["count"])


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named, labeled collection of counters/gauges/histograms.

    Accessor methods (:meth:`counter`, :meth:`gauge`, :meth:`histogram`)
    get-or-create, so instrumentation sites never pre-register; asking for
    an existing name with a different kind (or different histogram
    bounds) is an error — one name, one schema.  All
    mutation goes through a single re-entrant lock shared with the metric
    objects, so concurrent updates from the driver thread and a status
    reader are safe.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, _LabelsKey], object] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # accessors (get-or-create)
    # ------------------------------------------------------------------ #
    def _get_or_create(self, name: str, labels, kind: str, factory):
        # Explicit raises rather than require(): this runs per chunk, and
        # require() would format its message on every call.
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for (other_name, _), other in self._metrics.items():
                    if other_name == name and other.kind != kind:
                        raise ValueError(f"metric {name!r} already registered "
                                         f"as a {other.kind}, not a {kind}")
                metric = factory()
                self._metrics[key] = metric
            elif metric.kind != kind:
                raise ValueError(f"metric {name!r} already registered as a "
                                 f"{metric.kind}, not a {kind}")
            return metric

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None,
                help: Optional[str] = None) -> Counter:
        """The counter named ``(name, labels)``, created on first use."""
        if help is not None:
            self._help.setdefault(name, help)
        return self._get_or_create(name, labels, "counter",
                                   lambda: Counter(self._lock))

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None,
              help: Optional[str] = None) -> Gauge:
        """The gauge named ``(name, labels)``, created on first use."""
        if help is not None:
            self._help.setdefault(name, help)
        return self._get_or_create(name, labels, "gauge",
                                   lambda: Gauge(self._lock))

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  help: Optional[str] = None) -> Histogram:
        """The histogram named ``(name, labels)``, created on first use."""
        if help is not None:
            self._help.setdefault(name, help)
        histogram = self._get_or_create(name, labels, "histogram",
                                        lambda: Histogram(self._lock, bounds))
        require(histogram.bounds == tuple(float(b) for b in bounds),
                f"histogram {name!r} already registered with different "
                f"bucket bounds")
        return histogram

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def get(self, name: str, labels: Optional[Mapping[str, str]] = None):
        """The metric at ``(name, labels)``, or ``None`` if absent."""
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None,
              default: float = 0.0) -> float:
        """The scalar value of a counter/gauge (*default* if absent)."""
        metric = self.get(name, labels)
        if metric is None:
            return default
        require(metric.kind in ("counter", "gauge"),
                f"metric {name!r} is a {metric.kind}; read histograms "
                f"through .get()")
        return metric.value

    def collect(self) -> Iterator[Tuple[str, Dict[str, str], object]]:
        """Every ``(name, labels, metric)`` triple, sorted by name+labels."""
        with self._lock:
            items = sorted(self._metrics.items())
        for (name, labels_key), metric in items:
            yield name, dict(labels_key), metric

    def labeled(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], object]:
        """All label variants of one metric name (``labels_key -> metric``)."""
        with self._lock:
            return {labels_key: metric
                    for (metric_name, labels_key), metric
                    in self._metrics.items() if metric_name == name}

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------ #
    # merge (the cross-process fold)
    # ------------------------------------------------------------------ #
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry (metric-by-metric) and return self.

        Metrics absent here are created with the other side's schema;
        matching metrics combine per their kind (counters/histograms add,
        gauges keep the merged-in value).
        """
        for name, labels, metric in other.collect():
            if metric.kind == "counter":
                self.counter(name, labels).merge(metric)
            elif metric.kind == "gauge":
                self.gauge(name, labels).merge(metric)
            else:
                self.histogram(name, labels, bounds=metric.bounds).merge(metric)
        with self._lock:
            for name, text in other._help.items():
                self._help.setdefault(name, text)
        return self

    # ------------------------------------------------------------------ #
    # serialization (pipes, snapshot files, checkpoints)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (labels flattened into each entry)."""
        with self._lock:
            return {
                "metrics": [
                    {"name": name, "labels": dict(labels_key),
                     **metric.to_dict()}
                    for (name, labels_key), metric
                    in sorted(self._metrics.items())
                ],
                "help": dict(self._help),
            }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`.

        A gauge's ``"mode"`` entry, which snapshots and checkpoints carried
        while gauges had merge modes, is ignored.
        """
        registry = cls()
        for entry in data.get("metrics", ()):
            kind = str(entry["kind"])
            require(kind in _METRIC_KINDS, f"unknown metric kind {kind!r}")
            name, labels = str(entry["name"]), dict(entry["labels"])
            if kind == "counter":
                metric = registry.counter(name, labels)
            elif kind == "gauge":
                metric = registry.gauge(name, labels)
            else:
                metric = registry.histogram(name, labels,
                                            bounds=entry["bounds"])
            metric.restore(entry)
        registry._help.update({str(k): str(v)
                               for k, v in dict(data.get("help", {})).items()})
        return registry


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_exposition(registry: MetricsRegistry,
                          prefix: str = "repro_") -> str:
    """The registry in the Prometheus text exposition format (version 0.0.4).

    Counter sample names get the conventional ``_total`` suffix only if the
    metric name does not already carry it; histograms expand into
    ``_bucket{le=...}`` (cumulative), ``_sum``, and ``_count`` samples.
    """
    lines: List[str] = []
    seen_names: List[str] = []
    for name, labels, metric in registry.collect():
        full = prefix + name
        if name not in seen_names:
            seen_names.append(name)
            help_text = registry._help.get(name)
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for bound, bucket_count in zip(metric.bounds, metric.counts):
                cumulative += bucket_count
                le = 'le="%s"' % bound
                lines.append(f"{full}_bucket{_format_labels(labels, le)} "
                             f"{cumulative}")
            lines.append(f"{full}_bucket"
                         + _format_labels(labels, 'le="+Inf"')
                         + f" {metric.count}")
            lines.append(f"{full}_sum{_format_labels(labels)} {metric.total}")
            lines.append(f"{full}_count{_format_labels(labels)} "
                         f"{metric.count}")
        else:
            sample = full
            if metric.kind == "counter" and not sample.endswith("_total"):
                sample += "_total"
            lines.append(f"{sample}{_format_labels(labels)} {metric.value}")
    return "\n".join(lines) + "\n"
