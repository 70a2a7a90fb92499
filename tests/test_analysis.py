"""Tests for the analysis modules (correlation, stream lengths, bandwidth)."""

import pytest

from repro.analysis.bandwidth import bandwidth_overhead, estimate_elapsed_ns
from repro.analysis.correlation import cumulative_correlation, temporal_correlation
from repro.analysis.streams import fraction_of_hits_from_short_streams, stream_length_cdf
from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import CacheConfig, InterconnectConfig, SystemConfig, TSEConfig
from repro.common.stats import Histogram
from repro.common.types import TYPE_READ, Consumption
from repro.experiments.runner import trace_for
from repro.tse.simulator import TSESimulator
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams

#: A 4-node machine on a 2x2 torus.
FOUR_NODES = SystemConfig(
    num_nodes=4,
    l2=CacheConfig(hit_latency=25, mshrs=16),
    interconnect=InterconnectConfig(width=2, height=2),
)


def consumption_sequences(sequences):
    """Build per-node Consumption lists from address lists, interleaved round-robin."""
    per_node = [[] for _ in sequences]
    global_index = 0
    cursors = [0] * len(sequences)
    remaining = sum(len(s) for s in sequences)
    while remaining:
        for node, sequence in enumerate(sequences):
            if cursors[node] >= len(sequence):
                continue
            address = sequence[cursors[node]]
            per_node[node].append(
                Consumption(node=node, address=address, index=cursors[node],
                            global_index=global_index)
            )
            cursors[node] += 1
            global_index += 1
            remaining -= 1
    return per_node


class TestTemporalCorrelation:
    def test_identical_orders_are_perfectly_correlated(self):
        # Node 1 repeats exactly the sequence node 0 follows, shifted by one
        # round; every pair scores distance +1.
        sequences = [[1, 2, 3, 4, 5, 6] * 4, [1, 2, 3, 4, 5, 6] * 4]
        result = temporal_correlation(consumption_sequences(sequences))
        assert result.perfectly_correlated > 0.5
        assert result.cumulative_fraction(1) >= result.perfectly_correlated

    def test_unrelated_orders_are_uncorrelated(self):
        sequences = [list(range(100, 160)), list(range(500, 560))]
        result = temporal_correlation(consumption_sequences(sequences))
        assert result.perfectly_correlated == 0.0

    def test_cumulative_is_monotonic(self):
        sequences = [[1, 2, 3, 4, 5, 6, 7, 8] * 3, [1, 3, 2, 4, 6, 5, 7, 8] * 3]
        result = temporal_correlation(consumption_sequences(sequences))
        series = cumulative_correlation(result, range(1, 17))
        fractions = [f for _, f in series]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_measure_from_skips_warmup(self):
        sequences = [[1, 2, 3, 4] * 5, [1, 2, 3, 4] * 5]
        full = temporal_correlation(consumption_sequences(sequences))
        warmed = temporal_correlation(
            consumption_sequences(sequences), measure_from_global_index=10
        )
        assert warmed.total < full.total
        assert warmed.perfectly_correlated >= full.perfectly_correlated

    def test_empty_input(self):
        result = temporal_correlation([[], []])
        assert result.total == 0
        assert result.cumulative_fraction(8) == 0.0


class TestStreamLengths:
    def test_cdf_reaches_one(self):
        hist = Histogram("lengths")
        for length in (2, 2, 50, 50):
            hist.record(length, weight=length)
        cdf = stream_length_cdf(hist, buckets=(1, 2, 4, 64))
        assert cdf[-1][1] == pytest.approx(1.0)
        assert cdf[0][1] == 0.0

    def test_short_stream_share(self):
        hist = Histogram("lengths")
        hist.record(4, weight=4)    # short stream: 4 hits
        hist.record(100, weight=100)  # long stream: 100 hits
        assert fraction_of_hits_from_short_streams(hist, threshold=8) == pytest.approx(4 / 104)


class TestBandwidth:
    def _traffic_stats(self, trace):
        simulator = TSESimulator(
            trace.num_nodes, TSEConfig.paper_default(), account_traffic=True
        )
        return simulator.run(trace)

    def test_requires_traffic_accounting(self, small_traces):
        stats = TSESimulator(4, TSEConfig.paper_default()).run(small_traces["db2"])
        with pytest.raises(ValueError):
            bandwidth_overhead(stats, small_traces["db2"], FOUR_NODES)

    def test_overhead_result_fields_sane(self, small_traces):
        trace = small_traces["db2"]
        stats = self._traffic_stats(trace)
        result = bandwidth_overhead(stats, trace, FOUR_NODES)
        assert result.elapsed_ns > 0
        assert result.overhead_bandwidth_gbps >= 0
        assert 0 <= result.pin_overhead_ratio < 0.5
        assert result.overhead_ratio >= 0

    def test_elapsed_time_scales_with_trace_length(self, column_trace):
        system = FOUR_NODES
        short = column_trace([(0, i, TYPE_READ, 0, i * 10, 0) for i in range(10)], 4)
        long = column_trace([(0, i, TYPE_READ, 0, i * 10, 0) for i in range(100)], 4)
        assert estimate_elapsed_ns(long, system) > estimate_elapsed_ns(short, system)

    @staticmethod
    def _flat_elapsed(timestamps, system):
        """The estimate computed over one flat timestamp list: the maximum
        of the last 4096 timestamps, or of all of them when those are 0."""
        max_instructions = max(timestamps[-4096:], default=0)
        if max_instructions == 0 and timestamps:
            max_instructions = max(timestamps)
        return max_instructions / system.processor.base_ipc / system.clock_ghz

    @staticmethod
    def _timestamps(trace):
        return [t for chunk in trace.chunks() for t in chunk.timestamps]

    def test_elapsed_time_reads_the_timestamp_columns(self):
        system = SystemConfig.isca2005()
        params = WorkloadParams(num_nodes=16, seed=42, target_accesses=20_000)
        # 3000-access chunks: the 4096-access suffix spans the last three.
        trace = get_workload("db2", params).generate_chunked(chunk_size=3000)
        assert [len(chunk) for chunk in trace.chunks()[-3:]] == [3000, 3000, 2023]
        elapsed = estimate_elapsed_ns(trace, system)
        assert "accesses" not in trace.memo
        assert elapsed == self._flat_elapsed(self._timestamps(trace), system)

    def test_elapsed_time_falls_back_to_the_whole_trace(self):
        system = FOUR_NODES
        trace = ChunkedTrace(num_nodes=4)
        early = TraceChunk()
        early.extend_packed((0, block, 0, 0, 10 * block, 0) for block in range(100))
        late = TraceChunk()
        late.extend_packed((1, block, 0, 0, 0, 0) for block in range(5000))
        trace.append_chunk(early)
        trace.append_chunk(late)
        elapsed = estimate_elapsed_ns(trace, system)
        assert elapsed == self._flat_elapsed(self._timestamps(trace), system) > 0

    def test_bandwidth_overhead_builds_no_object_view(self):
        # A private copy: trace_for's traces are shared across tests.
        trace = ChunkedTrace.from_payload(trace_for("db2", 8_000, 42).to_payload())
        stats = self._traffic_stats(trace)
        bandwidth_overhead(stats, trace, SystemConfig.isca2005())
        assert "accesses" not in trace.memo
