"""Determinism regression tests for the performance subsystem (PR 1).

The fast paths added for the sensitivity sweeps — the shared result cache,
the parallel experiment runner, and the timing model's replay record — must be
invisible in the results: parallel == serial, cached == uncached, bit for
bit.  These tests lock that in on small traces.  The BENCH gate's series
reader (``benchmarks/check_bench_regression.py``) is checked here too.
"""

import importlib.util
import json
import os
import pathlib

import pytest

from repro.common.config import SystemConfig, TSEConfig
from repro.experiments import fig07_compared_streams, fig08_lookahead
from repro.experiments.cache import cache_info, cached_tse_run, clear_cache
from repro.experiments.runner import default_parallel_workers, run_parallel, trace_for
from repro.system.timing import TimingSimulator
from repro.tse.simulator import TSESimulator, run_tse_on_trace
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams

#: Small but non-trivial trace size: large enough for real streams to form.
ACCESSES = 6_000


class TestParallelRunnerDeterminism:
    def test_parallel_rows_identical_to_serial(self):
        """run_parallel over >=2 workloads and >=3 configs == the serial path."""
        workloads = ("db2", "em3d")
        configs = (1, 2, 3)  # compared streams, the Figure 7 sweep axis
        serial = fig07_compared_streams.run(
            workloads=workloads, stream_counts=configs,
            target_accesses=ACCESSES, seed=42,
        )
        parallel = run_parallel(
            fig07_compared_streams._point, workloads, configs,
            max_workers=2, target_accesses=ACCESSES, seed=42, lookahead=8,
        )
        assert parallel == serial
        assert len(parallel) == len(workloads) * len(configs)

    def test_parallel_merge_order_is_job_order(self):
        rows = run_parallel(
            fig08_lookahead._point, ("db2", "em3d"), (2, 4),
            max_workers=2, target_accesses=ACCESSES, seed=42,
        )
        assert [(r["workload"], r["lookahead"]) for r in rows] == [
            ("db2", 2), ("db2", 4), ("em3d", 2), ("em3d", 4),
        ]

    def test_serial_fallback_with_single_worker(self):
        rows = run_parallel(
            fig08_lookahead._point, ("db2",), (4,),
            max_workers=1, target_accesses=ACCESSES, seed=42,
        )
        assert len(rows) == 1 and rows[0]["workload"] == "db2"


class TestDefaultWorkers:
    """The worker count is the size of the process's CPU affinity set."""

    def test_one_allowed_cpu_runs_serially(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert default_parallel_workers() == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("run_parallel built a process pool on one CPU")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        rows = run_parallel(
            fig08_lookahead._point, ("db2", "em3d"), (2, 4),
            target_accesses=ACCESSES, seed=42,
        )
        assert len(rows) == 4

    def test_affinity_set_size(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_parallel_workers() == 3

    def test_cpu_count_without_the_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_parallel_workers() == 7


class TestResultCacheDeterminism:
    def test_cached_run_equals_direct_run(self):
        config = TSEConfig.paper_default(lookahead=8)
        direct = run_tse_on_trace(
            trace_for("db2", ACCESSES, 42), config, warmup_fraction=0.3
        )
        cached_cold = cached_tse_run(
            "db2", config, target_accesses=ACCESSES, seed=42, warmup_fraction=0.3
        )
        cached_warm = cached_tse_run(
            "db2", config, target_accesses=ACCESSES, seed=42, warmup_fraction=0.3
        )
        assert cached_warm is cached_cold  # second call is a cache hit
        assert cached_cold.as_dict() == direct.as_dict()
        assert (
            cached_cold.stream_length_hist.buckets()
            == direct.stream_length_hist.buckets()
        )

    def test_cache_hit_counters_move(self):
        clear_cache()
        config = TSEConfig.paper_default(lookahead=8)
        cached_tse_run("db2", config, target_accesses=ACCESSES, seed=42)
        before = cache_info()
        cached_tse_run("db2", config, target_accesses=ACCESSES, seed=42)
        after = cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_distinct_configs_not_conflated(self):
        a = cached_tse_run(
            "db2", TSEConfig.paper_default(lookahead=4),
            target_accesses=ACCESSES, seed=42, warmup_fraction=0.3,
        )
        b = cached_tse_run(
            "db2", TSEConfig.paper_default(lookahead=16),
            target_accesses=ACCESSES, seed=42, warmup_fraction=0.3,
        )
        assert a is not b


class TestTimingRecordDeterminism:
    def test_cached_compare_equals_uncached_compare(self, replays):
        """compare() served by a replay record == compare() on a fresh trace."""
        config = TSEConfig.paper_default(lookahead=8)
        system = SystemConfig.isca2005()

        cached_trace = trace_for("db2", ACCESSES, 42)
        first = TimingSimulator(system, config).compare(cached_trace)
        replayed = len(replays)
        second = TimingSimulator(system, config).compare(cached_trace)  # record hit
        assert len(replays) == replayed  # nothing replayed

        params = WorkloadParams(num_nodes=16, seed=42, target_accesses=ACCESSES)
        fresh_trace = get_workload("db2", params).generate_chunked()  # no record
        assert "replay_records" not in fresh_trace.memo
        uncached = TimingSimulator(system, config).compare(fresh_trace)
        assert len(replays) == replayed + 1

        for comparison in (second, uncached):
            assert comparison.speedup == first.speedup
            assert comparison.base.total_cycles == first.base.total_cycles
            assert comparison.tse.total_cycles == first.tse.total_cycles
            assert comparison.functional.as_dict() == first.functional.as_dict()
            assert comparison.tse.full_coverage == first.tse.full_coverage
            assert comparison.tse.partial_coverage == first.tse.partial_coverage

    def test_base_label_shared_across_tse_configs(self, replays):
        """The base run is TSE-config independent and replays nothing."""
        trace = trace_for("em3d", ACCESSES, 42)
        system = SystemConfig.isca2005()
        base_a = TimingSimulator(system, TSEConfig.paper_default(lookahead=4)).run_base(trace)
        base_b = TimingSimulator(system, TSEConfig.paper_default(lookahead=24)).run_base(trace)
        assert not replays  # no label run
        assert base_b.total_cycles == base_a.total_cycles


class TestStreamingIngestionDeterminism:
    def test_stream_run_equals_materialized_run(self):
        """run_chunks on workload.stream_chunks() == run on the materialized trace."""
        config = TSEConfig.paper_default(lookahead=8)
        params = WorkloadParams(num_nodes=16, seed=42, target_accesses=ACCESSES)
        trace = get_workload("db2", params).generate_chunked()
        direct = TSESimulator(16, config).run(trace, warmup_fraction=0.3)
        streamed = TSESimulator(16, config).run_chunks(
            get_workload("db2", params).stream_chunks(),
            name=trace.name,
            warmup_accesses=int(len(trace) * 0.3),
        )
        assert streamed.as_dict() == direct.as_dict()
        assert (
            streamed.stream_length_hist.buckets()
            == direct.stream_length_hist.buckets()
        )


def _load_bench_gate():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "check_bench_regression.py")
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _artifact(generate=None, src_lines=None):
    entry = {"accesses_per_s": 100_000,
             "classify": {"wallclock_s": 0.1, "accesses_per_s": 800_000}}
    if generate is not None:
        entry["generate"] = {"wallclock_s": 0.5, "accesses_per_s": generate}
    artifact = {"functional_sim": {"per_class": {"db2": entry}}}
    if src_lines is not None:
        artifact["src_lines"] = src_lines
    return artifact


class TestBenchGateSeries:
    def test_generate_series_is_read(self):
        gate = _load_bench_gate()
        assert gate.throughputs(_artifact(generate=160_000)) == {
            "db2": 100_000.0, "db2.classify": 800_000.0,
            "db2.generate": 160_000.0,
        }

    def test_committed_file_without_the_series_skips_it(
        self, tmp_path, monkeypatch, capsys
    ):
        gate = _load_bench_gate()
        fresh, committed = tmp_path / "fresh.json", tmp_path / "committed.json"
        # A fresh generate rate far below anything: nothing to gate it on.
        fresh.write_text(json.dumps(_artifact(generate=1)))
        committed.write_text(json.dumps(_artifact()))
        monkeypatch.setattr("sys.argv", ["check", str(fresh), str(committed)])
        assert gate.main() == 0
        assert "generate" not in capsys.readouterr().out

    @pytest.mark.parametrize("fresh_lines, committed_lines", [
        ({"tse": 6_000, "lint": 900}, {"tse": 3_000, "service": 4_000}),
        ({"tse": 6_000}, None),
        (None, {"tse": 3_000}),
        (None, None),
    ])
    def test_src_lines_are_reported_and_never_gated(
        self, tmp_path, monkeypatch, capsys, fresh_lines, committed_lines
    ):
        gate = _load_bench_gate()
        fresh, committed = tmp_path / "fresh.json", tmp_path / "committed.json"
        fresh.write_text(json.dumps(_artifact(src_lines=fresh_lines)))
        committed.write_text(json.dumps(_artifact(src_lines=committed_lines)))
        monkeypatch.setattr("sys.argv", ["check", str(fresh), str(committed)])
        assert gate.main() == 0
        out = capsys.readouterr().out
        if fresh_lines and committed_lines:
            assert "src/repro/tse: 3,000 -> 6,000 lines (+3,000)" in out
            assert "src/repro/service: 4,000 -> 0 lines (-4,000)" in out
            assert "src/repro/lint: 0 -> 900 lines (+900)" in out
            assert "src/repro: 7,000 -> 6,900 lines (-100)" in out
        else:
            assert "lines" not in out
