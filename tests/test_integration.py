"""End-to-end integration tests: workloads -> TSE -> analysis -> timing.

These tests assert the qualitative results that define the paper's story:
scientific workloads are highly temporally correlated and almost fully
covered, commercial workloads are partially covered, TSE beats the baseline
prefetchers, and the timing model turns coverage into speedup.
"""

import pytest

from repro.analysis.correlation import temporal_correlation
from repro.coherence.protocol import trace_consumptions
from repro.common.config import PAPER_LOOKAHEAD, TSEConfig
from repro.prefetch import StridePrefetcher, evaluate_prefetcher
from repro.system.dsm import DSMSystem
from repro.tse.simulator import run_tse_on_trace
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams


@pytest.fixture(scope="module")
def traces_16():
    """Medium 16-node traces for one scientific and one commercial workload.

    em3d needs several solver iterations of history before streams recur, so
    its trace is longer than the transaction-based db2 trace.
    """
    sizes = {"em3d": 120_000, "db2": 60_000}
    traces = {}
    for name, target in sizes.items():
        params = WorkloadParams(num_nodes=16, seed=5, target_accesses=target)
        traces[name] = get_workload(name, params).generate_chunked()
    return traces


class TestCoverageShape:
    def test_scientific_coverage_exceeds_commercial(self, traces_16):
        results = {}
        for name, trace in traces_16.items():
            config = TSEConfig.paper_default(lookahead=PAPER_LOOKAHEAD[name])
            results[name] = run_tse_on_trace(trace, config, warmup_fraction=0.3).coverage
        # em3d approaches the paper's ~100 % as the trace grows; at this trace
        # length the cold first iterations still hold it in the high 0.7s.
        assert results["em3d"] > 0.75
        assert 0.3 < results["db2"] < 0.8
        assert results["em3d"] > results["db2"]

    def test_tse_beats_stride_prefetcher(self, traces_16):
        trace = traces_16["db2"]
        tse = run_tse_on_trace(trace, TSEConfig.paper_default(), warmup_fraction=0.3)
        stride = evaluate_prefetcher(
            trace, lambda: StridePrefetcher(degree=8), warmup_fraction=0.3
        )
        assert tse.coverage > stride.coverage + 0.2

    def test_two_streams_cut_discards_vs_one(self, traces_16):
        trace = traces_16["db2"]
        one = run_tse_on_trace(
            trace, TSEConfig.unconstrained(compared_streams=1), warmup_fraction=0.3
        )
        two = run_tse_on_trace(
            trace, TSEConfig.unconstrained(compared_streams=2), warmup_fraction=0.3
        )
        assert two.discard_rate < one.discard_rate
        assert two.coverage > one.coverage * 0.7

    def test_tiny_cmob_destroys_coverage(self, traces_16):
        trace = traces_16["em3d"]
        large = run_tse_on_trace(trace, TSEConfig.paper_default(), warmup_fraction=0.3)
        tiny = run_tse_on_trace(
            trace, TSEConfig.paper_default().with_(cmob_capacity=32), warmup_fraction=0.3
        )
        assert tiny.coverage < large.coverage * 0.6


class TestCorrelationShape:
    def test_em3d_more_correlated_than_db2(self, traces_16):
        fractions = {}
        for name, trace in traces_16.items():
            result = temporal_correlation(
                trace_consumptions(trace),
                measure_from_global_index=int(len(trace) * 0.3), workload=name,
            )
            fractions[name] = result.cumulative_fraction(8)
        assert fractions["em3d"] > fractions["db2"]
        assert fractions["db2"] > 0.25


class TestDSMSystemFacade:
    def test_run_workload_end_to_end(self):
        dsm = DSMSystem()
        result = dsm.run_workload("apache", target_accesses=30_000, seed=9, with_timing=True)
        assert result.workload == "apache"
        assert 0.0 < result.tse_stats.coverage < 1.0
        assert result.timing.speedup > 0.9

    def test_tse_config_for_uses_paper_lookahead(self):
        dsm = DSMSystem()
        assert dsm.tse_config_for("ocean").stream_lookahead == 24
        assert dsm.tse_config_for("zeus").stream_lookahead == 8

    def test_generate_trace_respects_node_count(self):
        from repro.common.config import InterconnectConfig, SystemConfig

        four_nodes = SystemConfig(
            num_nodes=4, interconnect=InterconnectConfig(width=2, height=2))
        dsm = DSMSystem(system=four_nodes)
        trace = dsm.generate_trace("zeus", target_accesses=5_000)
        assert trace.num_nodes == 4


class TestExperimentsSmoke:
    def test_fig06_rows_have_all_distances(self):
        from repro.experiments import fig06_correlation

        rows = fig06_correlation.run(workloads=["ocean"], target_accesses=20_000)
        assert len(rows) == 1
        assert all(f"d{d}" in rows[0] for d in range(1, 17))

    def test_fig07_sweeps_stream_counts(self):
        from repro.experiments import fig07_compared_streams

        rows = fig07_compared_streams.run(
            workloads=["zeus"], stream_counts=(1, 2), target_accesses=20_000
        )
        assert {r["compared_streams"] for r in rows} == {1, 2}

    def test_fig12_includes_all_techniques(self):
        from repro.experiments import fig12_comparison

        rows = fig12_comparison.run(workloads=["em3d"], target_accesses=20_000)
        assert {r["technique"] for r in rows} == {"Stride", "G/DC", "G/AC", "TSE"}

    def test_format_table_renders_all_rows(self):
        from repro.experiments.runner import format_table

        text = format_table(
            [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}], ["a", "b"]
        )
        assert text.count("\n") == 3
