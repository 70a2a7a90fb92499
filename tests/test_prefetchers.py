"""Unit tests for the baseline prefetchers and their evaluation harness."""

import pytest

from repro.common.types import TYPE_READ, TYPE_WRITE
from repro.prefetch import GHBPrefetcher, PrefetchBuffer, StridePrefetcher, evaluate_prefetcher
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams


class TestPrefetchBuffer:
    def test_insert_consume(self):
        buffer = PrefetchBuffer(capacity=2)
        buffer.insert(10)
        assert buffer.consume(10)
        assert not buffer.consume(10)

    def test_eviction_counts_discard(self):
        buffer = PrefetchBuffer(capacity=1)
        buffer.insert(1)
        buffer.insert(2)
        assert buffer.discards == 1

    def test_invalidate_counts_discard(self):
        buffer = PrefetchBuffer(capacity=4)
        buffer.insert(1)
        buffer.invalidate(1)
        assert buffer.discards == 1

    def test_drain_discards_leftovers(self):
        buffer = PrefetchBuffer(capacity=4)
        buffer.insert(1)
        buffer.insert(2)
        assert buffer.drain() == 2
        assert buffer.discards == 2


class TestStridePrefetcher:
    def test_detects_unit_stride_after_two_confirmations(self):
        prefetcher = StridePrefetcher(degree=4)
        assert prefetcher.on_consumption(100) == []
        assert prefetcher.on_consumption(101) == []  # first stride observed
        prefetches = prefetcher.on_consumption(102)  # stride confirmed
        assert prefetches[:2] == [103, 104]

    def test_detects_non_unit_stride(self):
        prefetcher = StridePrefetcher(degree=3)
        prefetcher.on_consumption(10)
        prefetcher.on_consumption(20)
        assert prefetcher.on_consumption(30) == [40, 50, 60]

    def test_random_addresses_produce_no_prefetches(self):
        prefetcher = StridePrefetcher(degree=8)
        outputs = [prefetcher.on_consumption(a) for a in (5, 97, 13, 400, 22)]
        assert all(not out for out in outputs)

    def test_stride_break_resets_confirmation(self):
        prefetcher = StridePrefetcher(degree=4)
        for address in (1, 2, 3):
            prefetcher.on_consumption(address)
        assert prefetcher.on_consumption(100) == []
        assert prefetcher.on_consumption(101) == []
        assert prefetcher.on_consumption(102) != []


class TestGHBPrefetcher:
    def test_address_correlation_replays_followers(self):
        ghb = GHBPrefetcher(mode="G/AC", degree=3)
        for address in (1, 5, 9, 13):
            ghb.on_consumption(address)
        prefetches = ghb.on_consumption(1)  # 1 was followed by 5, 9, 13
        assert prefetches == [5, 9, 13]

    def test_distance_correlation_replays_deltas(self):
        ghb = GHBPrefetcher(mode="G/DC", degree=3)
        for address in (10, 20, 30, 40):
            ghb.on_consumption(address)
        # Current delta (+10) matches history; the recorded follower delta is
        # +10, so the first prediction continues the arithmetic sequence.
        prefetches = ghb.on_consumption(50)
        assert prefetches and prefetches[0] == 60
        assert all(b - a == 10 for a, b in zip([50] + prefetches, prefetches))

    def test_small_history_forgets_old_sequences(self):
        ghb = GHBPrefetcher(mode="G/AC", history_entries=8, degree=4)
        for address in (1, 2, 3, 4):
            ghb.on_consumption(address)
        for address in range(100, 120):  # overflow the 8-entry buffer
            ghb.on_consumption(address)
        assert ghb.on_consumption(1) == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            GHBPrefetcher(mode="bogus")

    def test_no_prediction_without_history(self):
        assert GHBPrefetcher(mode="G/AC").on_consumption(42) == []


def db2_trace(chunk_size):
    params = WorkloadParams(num_nodes=16, seed=42, target_accesses=6_000)
    return get_workload("db2", params).generate_chunked(chunk_size=chunk_size)


@pytest.fixture(scope="module")
def strided_migratory_trace(column_trace):
    """Node 0 writes a block range; node 1 reads it with unit stride."""
    rows = []
    t = [0, 0]
    for round_index in range(20):
        base = 1000
        for offset in range(16):
            t[0] += 5
            rows.append((0, base + offset, TYPE_WRITE, 0, t[0], 0))
        for offset in range(16):
            t[1] += 5
            rows.append((1, base + offset, TYPE_READ, 0, t[1], 0))
    return column_trace(rows, 2, "strided")


class TestEvaluationHarness:
    def test_stride_prefetcher_covers_strided_consumptions(self, strided_migratory_trace):
        trace = strided_migratory_trace
        result = evaluate_prefetcher(trace, lambda: StridePrefetcher(degree=8), warmup_fraction=0.2)
        assert result.total_consumptions > 0
        assert result.coverage > 0.5

    def test_ghb_ac_covers_repeating_sequences(self, strided_migratory_trace):
        trace = strided_migratory_trace
        result = evaluate_prefetcher(
            trace, lambda: GHBPrefetcher(mode="G/AC", degree=8), warmup_fraction=0.2
        )
        assert result.coverage > 0.3

    def test_counts_are_consistent(self, strided_migratory_trace):
        trace = strided_migratory_trace
        result = evaluate_prefetcher(trace, lambda: StridePrefetcher(degree=8))
        assert result.total_consumptions == result.buffer_hits + result.remaining_consumptions
        assert result.discarded_blocks >= 0
        assert 0.0 <= result.coverage <= 1.0

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
    def test_chunk_boundaries_are_invisible(self, warmup_fraction):
        one_chunk = db2_trace(chunk_size=1 << 30)
        factory = lambda: GHBPrefetcher(mode="G/DC", degree=8)  # noqa: E731
        packed = evaluate_prefetcher(one_chunk, factory, warmup_fraction=warmup_fraction)
        assert "accesses" not in one_chunk.memo  # the harness reads the columns
        fine = db2_trace(chunk_size=512)
        assert evaluate_prefetcher(fine, factory, warmup_fraction=warmup_fraction) == packed
