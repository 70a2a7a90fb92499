"""Statistics primitives: counters, histograms and a named registry.

Every simulator component records its activity through these primitives so
experiments can harvest a uniform dictionary of results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase; use a plain attribute otherwise")
        self.value += amount


class Histogram:
    """A sparse integer-keyed histogram with summary statistics.

    Cumulative queries (:meth:`cumulative_fraction`, :meth:`percentile`)
    are served from a sorted prefix-sum cache built lazily on first query
    and invalidated by :meth:`record`, so evaluating a CDF at many points
    is ``O(n log n + points)`` instead of the naive ``O(n * points)``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = defaultdict(int)
        self._count = 0
        self._total = 0
        #: (sorted values, matching cumulative weights), or None when stale.
        self._prefix_cache: Optional[Tuple[List[int], List[int]]] = None

    def record(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._buckets[value] += weight
        self._count += weight
        self._total += value * weight
        self._prefix_cache = None

    def _prefix_sums(self) -> Tuple[List[int], List[int]]:
        """Sorted bucket values with cumulative weights (cached)."""
        cache = self._prefix_cache
        if cache is None:
            values = sorted(self._buckets)
            cumulative: List[int] = []
            running = 0
            for value in values:
                running += self._buckets[value]
                cumulative.append(running)
            cache = self._prefix_cache = (values, cumulative)
        return cache

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def buckets(self) -> Dict[int, int]:
        """Return a copy of the raw bucket counts."""
        return dict(self._buckets)

    def percentile(self, fraction: float) -> int:
        """Return the smallest value v such that P(X <= v) >= fraction."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not self._count:
            return 0
        values, cumulative = self._prefix_sums()
        index = bisect_left(cumulative, fraction * self._count)
        return values[min(index, len(values) - 1)]

    def cumulative_fraction(self, upper: int) -> float:
        """Fraction of recorded samples with value <= upper (inclusive)."""
        if not self._count:
            return 0.0
        values, cumulative = self._prefix_sums()
        index = bisect_right(values, upper)
        return cumulative[index - 1] / self._count if index else 0.0


@dataclass
class StatsRegistry:
    """Named collection of counters owned by a component.

    Components create their counters through the registry so that the
    experiment harness can collect every value with :meth:`snapshot`.
    """

    prefix: str = ""
    counters: Dict[str, Counter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        if name not in self.counters:
            self.counters[name] = Counter(self._qualify(name))
        return self.counters[name]

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def snapshot(self) -> Dict[str, float]:
        """Flatten every counter into a plain dictionary."""
        return {self._qualify(name): counter.value for name, counter in self.counters.items()}


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Safe division used all over the analysis code."""
    return numerator / denominator if denominator else default


def publish_counters(registry: StatsRegistry, values: Mapping[str, int]) -> StatsRegistry:
    """Publish plain-int hot-path counters into a registry and return it.

    The TSE system layer (``TemporalStreamingSystem.stats``) accumulates its
    activity in plain integer attributes and calls this helper when the
    property is read, so the replay's hot path never touches the registry.
    """
    for name, value in values.items():
        registry.counter(name).value = value
    return registry
