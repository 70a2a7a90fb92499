"""In-process metrics registry behind ``GET /metrics``.

Thread-safe counters, gauges, and latency histograms over plain dicts —
no dependencies, Prometheus text exposition by default and JSON with
``?format=json`` (CI's events smoke uploads both forms).  Metrics are
observational telemetry for the service plane only; nothing here touches
a determinism key or a result row.

The registry is *pull-refresh*: values that are snapshots of live state
(queue depth, active leases, uptime, derived rates) are recomputed by
collect hooks registered with :meth:`MetricsRegistry.add_collect_hook`,
run at render time — so gauges are current on every scrape without a
background thread.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Latency buckets (seconds) sized for simulation jobs: sub-second cache
#: settles up through multi-minute full-size trace replays.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing per-labelset counter."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def sum_where(self, **labels: str) -> float:
        """Sum over every labelset containing all the given pairs."""
        want = set(_label_key(labels))
        with self._lock:
            return sum(
                value for key, value in self._values.items()
                if want <= set(key)
            )

    def items(self) -> List[Tuple[Dict[str, str], float]]:
        """Every (labels, value) pair (for derived-rate computation)."""
        with self._lock:
            return [
                (dict(key), value) for key, value in sorted(self._values.items())
            ]

    def samples(self) -> List[Tuple[str, float]]:
        with self._lock:
            return [
                (f"{self.name}{_render_labels(key)}", value)
                for key, value in sorted(self._values.items())
            ]

    def to_json(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "||".join(f"{k}={v}" for k, v in key) or "": value
                for key, value in sorted(self._values.items())
            }


class Gauge(Counter):
    """Point-in-time value (same storage as a counter, plus ``set``)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value


class Histogram:
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        #: labelset -> (per-bucket counts, +Inf count, sum)
        self._counts: Dict[_LabelKey, List[float]] = {}
        self._sums: Dict[_LabelKey, float] = {}
        self._totals: Dict[_LabelKey, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0.0] * len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1.0
            self._totals[key] = self._totals.get(key, 0.0) + 1.0
            self._sums[key] = self._sums.get(key, 0.0) + value

    def samples(self) -> List[Tuple[str, float]]:
        out: List[Tuple[str, float]] = []
        with self._lock:
            for key in sorted(self._counts):
                counts = self._counts[key]
                for bound, count in zip(self.buckets, counts):
                    bucket_key = key + (("le", f"{bound:g}"),)
                    out.append(
                        (f"{self.name}_bucket{_render_labels(bucket_key)}",
                         count)
                    )
                inf_key = key + (("le", "+Inf"),)
                out.append(
                    (f"{self.name}_bucket{_render_labels(inf_key)}",
                     self._totals[key])
                )
                out.append(
                    (f"{self.name}_sum{_render_labels(key)}", self._sums[key])
                )
                out.append(
                    (f"{self.name}_count{_render_labels(key)}",
                     self._totals[key])
                )
        return out

    def to_json(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "||".join(f"{k}={v}" for k, v in key) or "": {
                    "count": self._totals[key],
                    "sum": self._sums[key],
                    "buckets": dict(zip(
                        [f"{b:g}" for b in self.buckets], self._counts[key]
                    )),
                }
                for key in sorted(self._counts)
            }


class MetricsRegistry:
    """Named metric family registry with text + JSON exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}
        self._hooks: List[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, name: str, factory: Callable[[], Any]):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets=buckets)
        )

    def add_collect_hook(
        self, hook: Callable[["MetricsRegistry"], None],
    ) -> None:
        """Register a render-time refresher for live-state gauges."""
        with self._lock:
            self._hooks.append(hook)

    def _collect(self) -> List[Any]:
        with self._lock:
            hooks = list(self._hooks)
        for hook in hooks:
            hook(self)
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------ exposition
    def render_text(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self._collect():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample, value in metric.samples():
                if value == int(value):
                    lines.append(f"{sample} {int(value)}")
                else:
                    lines.append(f"{sample} {value}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> Dict[str, Any]:
        return {
            metric.name: {
                "kind": metric.kind,
                "help": metric.help,
                "values": metric.to_json(),
            }
            for metric in self._collect()
        }
