"""Unit tests for stats and RNG infrastructure."""

import pytest

from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Histogram, StatsRegistry, publish_counters, ratio


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestHistogram:
    def test_mean_and_count(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 4):
            hist.record(value)
        assert sum(hist.buckets().values()) == 4
        assert hist.mean == pytest.approx(2.5)

    def test_weighted_record(self):
        hist = Histogram("h")
        hist.record(10, weight=3)
        hist.record(2)
        assert hist.buckets() == {10: 3, 2: 1}
        assert hist.mean == pytest.approx(8.0)

    def test_cumulative_fraction(self):
        hist = Histogram("h")
        for value in (1, 2, 4, 8):
            hist.record(value)
        assert hist.cumulative_fraction(2) == pytest.approx(0.5)
        assert hist.cumulative_fraction(8) == pytest.approx(1.0)
        assert hist.cumulative_fraction(0) == 0.0

    def test_percentile(self):
        hist = Histogram("h")
        for value in range(1, 11):
            hist.record(value)
        assert hist.percentile(0.5) == 5
        assert hist.percentile(1.0) == 10

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    @pytest.mark.parametrize("weight", [0, -1])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            Histogram("h").record(5, weight=weight)

    def test_empty_histogram_reads_zero(self):
        hist = Histogram("h")
        assert (hist.mean, hist.percentile(0.5), hist.cumulative_fraction(10)) == (0.0, 0, 0.0)

    def test_record_after_a_query_refreshes_the_prefix_sums(self):
        hist = Histogram("h")
        hist.record(1)
        hist.record(3)
        assert hist.cumulative_fraction(1) == pytest.approx(0.5)
        assert hist.percentile(0.75) == 3
        hist.record(1, weight=2)
        assert hist.cumulative_fraction(1) == pytest.approx(0.75)
        assert hist.percentile(0.75) == 1


class TestStatsRegistry:
    def test_counter_reuse_and_snapshot(self):
        stats = StatsRegistry(prefix="x")
        stats.counter("hits").increment(2)
        stats.counter("hits").increment(1)
        stats.counter("misses")
        assert stats.snapshot() == {"x.hits": 3, "x.misses": 0}

    def test_ratio_safe_division(self):
        assert ratio(1, 2) == 0.5
        assert ratio(1, 0) == 0.0
        assert ratio(1, 0, default=1.0) == 1.0

    def test_publish_counters_overwrites_instead_of_adding(self):
        """The TSE system republishes its running totals on every read of
        ``stats``, so a second publish must replace the first."""
        stats = StatsRegistry(prefix="tse")
        assert publish_counters(stats, {"hits": 4, "misses": 1}) is stats
        publish_counters(stats, {"hits": 6})
        assert stats.snapshot() == {"tse.hits": 6, "tse.misses": 1}


class TestDeterministicRNG:
    def test_same_seed_same_sequence(self):
        a, b = DeterministicRNG(3), DeterministicRNG(3)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_fork_is_independent_of_parent_draws(self):
        a = DeterministicRNG(3)
        a_child = a.fork(1)
        b = DeterministicRNG(3)
        b.random()  # extra draw in the parent must not change the child
        b_child = b.fork(1)
        assert [a_child.randint(0, 9) for _ in range(5)] == [b_child.randint(0, 9) for _ in range(5)]

    def test_forks_with_distinct_salts_differ(self):
        parent = DeterministicRNG(3)
        draws = [[child.random() for _ in range(4)] for child in (parent.fork(1), parent.fork(2))]
        assert draws[0] != draws[1]

    def test_randint_bounds_are_inclusive(self):
        rng = DeterministicRNG(7)
        assert {rng.randint(0, 1) for _ in range(200)} == {0, 1}
        assert rng.randint(5, 5) == 5

    def test_sample_and_shuffle_follow_the_seed(self):
        a, b = DeterministicRNG(11), DeterministicRNG(11)
        population = list(range(20))
        picked = a.sample(population, 5)
        assert picked == b.sample(population, 5)
        assert len(set(picked)) == 5 and set(picked) <= set(population)
        left, right = list(population), list(population)
        a.shuffle(left)
        b.shuffle(right)
        assert left == right and sorted(left) == population

    def test_zipf_within_range_and_skewed(self):
        rng = DeterministicRNG(5)
        draws = [rng.zipf(100, alpha=1.0) for _ in range(2000)]
        assert all(0 <= d < 100 for d in draws)
        # The most popular item should be drawn noticeably more often than a
        # uniform distribution would produce.
        assert draws.count(0) > 2000 / 100 * 2

    # Literal draws, taken from the per-instance table the shared one
    # replaced: the workloads' (n, alpha) shapes, apache/zeus's 32,758-item
    # pool included.
    @pytest.mark.parametrize("n, alpha, draws", [
        (80, 0.6, [1, 19, 19, 57, 1, 4, 27, 23, 47, 22, 40, 45]),
        (256, 0.4, [9, 84, 86, 200, 7, 23, 112, 99, 172, 96, 153, 166]),
        (32758, 0.8, [15, 1767, 1902, 16852, 10, 92, 3664, 2671, 11240, 2504,
                      8329, 10326]),
    ])
    def test_zipf_draws_are_pinned(self, n, alpha, draws):
        rng = DeterministicRNG(2026)
        assert [rng.zipf(n, alpha) for _ in range(len(draws))] == draws

    def test_zipf_draw_above_the_last_entry_is_the_last_item(self):
        # The (80, 0.6) table's last entry rounds to 0.9999999999999997.
        rng = DeterministicRNG(1)
        rng._rng.random = lambda: 1.0 - 2.0 ** -53
        assert rng.zipf(80, 0.6) == 79

    def test_zipf_of_one_item_still_draws(self):
        rng = DeterministicRNG(2026)
        assert [rng.zipf(1, 0.5) for _ in range(3)] == [0, 0, 0]
        assert rng.random() == 0.8600005876492754  # the stream's 4th draw

    @pytest.mark.parametrize("n", [0, -1])
    def test_zipf_rejects_an_empty_range(self, n):
        with pytest.raises(ValueError):
            DeterministicRNG(1).zipf(n, 0.5)

    def test_bernoulli_extremes(self):
        rng = DeterministicRNG(1)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))
