"""Deterministic random-number helpers.

Every stochastic component (workload generators, replacement tie-breaking)
draws from a :class:`DeterministicRNG` seeded explicitly, so experiment
results are reproducible bit-for-bit.  The Zipf inverse CDF is a pure
function of ``(n, alpha)``, so one read-only table per pair serves every
generator in the process (:func:`_zipf_cdf`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from array import array
from bisect import bisect_left
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def backoff_delay(
    key: str, attempt: int, base: float = 0.5, cap: float = 30.0,
) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    The jitter is drawn from a :class:`DeterministicRNG` seeded by ``key``
    and forked by the attempt number, so the full retry schedule of any
    actor is a pure function of ``(key, attempt)`` — reproducible in the
    chaos suite, yet decorrelated across keys (two poison jobs, or two
    workers hammering a restarting server, never retry in lockstep).

    Shared by the scheduler's job-retry plane (PR 8) and the HTTP
    transport's reconnect plane (:mod:`repro.service.transport`).
    """
    if attempt < 1:
        return 0.0
    salt = int(hashlib.sha256(key.encode()).hexdigest()[:8], 16)
    rng = DeterministicRNG(salt).fork(attempt)
    return min(cap, base * (2 ** (attempt - 1))) * (0.5 + 0.5 * rng.random())


@functools.lru_cache(maxsize=None)
def _zipf_cdf(n: int, alpha: float) -> array:
    """The truncated Zipf inverse CDF over ``n`` items: entry ``i`` is the
    running sum of the normalised harmonic weights ``1 / (j + 1) ** alpha``
    for ``j <= i``, added in index order (so the floats, the last one's
    rounding below 1.0 included, are the same wherever it is built).

    Built once per ``(n, alpha)`` per process and shared by every
    :class:`DeterministicRNG`; callers only read it.
    """
    weights = [1.0 / ((i + 1) ** alpha) for i in range(n)]
    total = sum(weights)
    return array("d", itertools.accumulate(w / total for w in weights))


class DeterministicRNG:
    """Thin wrapper around :class:`random.Random` with convenience helpers.

    A wrapper (rather than ``random.Random`` directly) gives one place to add
    distributions the workload generators need (Zipf, bounded Pareto) without
    pulling in numpy's global state.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRNG":
        """Derive an independent child generator; children with distinct salts
        produce uncorrelated sequences regardless of draw order in the parent."""
        return DeterministicRNG((self.seed * 1_000_003 + salt) & 0xFFFFFFFF)

    # -- thin passthroughs -------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def randrange(self, stop: int) -> int:
        return self._rng.randrange(stop)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    # -- distributions used by workload generators --------------------------
    def zipf(self, n: int, alpha: float = 0.99) -> int:
        """Draw an index in [0, n) from a Zipf-like distribution.

        OLTP and web-server workloads exhibit highly skewed access frequency
        to warehouses / pages / files; a truncated Zipf captures that skew.
        One uniform draw is inverted through the process-wide table of
        :func:`_zipf_cdf`: the first index whose entry reaches it, clamped
        to ``n - 1`` (the last entry can round below a draw).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        cdf = _zipf_cdf(n, alpha)
        return bisect_left(cdf, self._rng.random(), 0, n - 1)

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self._rng.random() < p
