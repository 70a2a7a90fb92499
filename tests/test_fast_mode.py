"""Tolerance-band lock for the fast replay plane (``mode="fast"``).

The fast plane is contractually non-bit-identical; what it ships under is
the set of per-metric tolerance bands declared in
``benchmarks/validate_fast_mode.py``.  These tests import those bands (one
source of truth) and enforce them for every registered workload, so any
fast-engine change that drifts an aggregate out of band fails CI with the
per-metric deltas spelled out.  They also lock that the plane is reachable
only as an explicit, bare replay.

Trace size follows ``REPRO_BENCH_ACCESSES`` (default 20k here: large
enough for streams to form and the aggregates to stabilise, small enough
for the tier-1 suite).  The full-size sweep is
``PYTHONPATH=src python benchmarks/validate_fast_mode.py``.
"""

import functools
import importlib.util
import pathlib
import sys

import pytest

from repro.common.config import bench_accesses
from repro.workloads import available_workloads

_HARNESS = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "validate_fast_mode.py"
)
_spec = importlib.util.spec_from_file_location("validate_fast_mode", _HARNESS)
validate_fast_mode = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_fast_mode)

BANDS = validate_fast_mode.BANDS
check_metric = validate_fast_mode.check_metric

ACCESSES = bench_accesses(default=20000)
SEED = 42
NODES = 16

WORKLOADS = sorted(available_workloads())


@functools.lru_cache(maxsize=None)
def _metrics(workload: str, mode: str):
    return validate_fast_mode._metrics(workload, ACCESSES, SEED, NODES, mode)


class TestToleranceBands:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_within_declared_bands(self, workload):
        exact = _metrics(workload, "exact")
        fast = _metrics(workload, "fast")
        failures = []
        for name, band in sorted(BANDS.items()):
            kind, width, floor = validate_fast_mode._unpack_band(band)
            delta, within = check_metric(kind, width, exact[name], fast[name], floor)
            if not within:
                failures.append(
                    f"{name}: exact={exact[name]:.6g} fast={fast[name]:.6g} "
                    f"delta={delta:+.6g} band=±{width}{' rel' if kind == 'rel' else ''}"
                )
        assert not failures, (
            f"{workload} fast mode left its tolerance bands at "
            f"{ACCESSES} accesses:\n" + "\n".join(failures)
        )

    def test_bands_cover_the_headline_metrics(self):
        """The contract bounds coverage, discards and stream length, the
        aggregates a bare replay reports — removing one silently would
        un-gate the plane."""
        assert set(BANDS) == {"coverage", "discard_rate", "mean_stream_length"}


class TestFastModeDeterminism:
    def test_fast_plane_is_bit_stable(self):
        """Non-bit-identical to *exact* — but the fast plane must still be
        deterministic run-to-run, or its store keys would be meaningless."""
        first = _metrics("db2", "fast")
        again = validate_fast_mode._metrics("db2", ACCESSES, SEED, NODES, "fast")
        assert again == first

    @pytest.mark.parametrize("options", [
        {"account_traffic": True},
        {"record_outcomes": True},
    ])
    def test_fast_plane_runs_bare_replays_only(self, options):
        from repro.tse.simulator import TSESimulator

        with pytest.raises(ValueError, match="bare replays only"):
            TSESimulator(NODES, mode="fast", **options)

    def test_fast_traffic_run_is_refused_before_replaying(self):
        from repro.experiments.runner import trace_for
        from repro.tse.simulator import run_tse_on_trace

        trace = trace_for("db2", 1_000, SEED, NODES)
        with pytest.raises(ValueError, match="bare replays only"):
            run_tse_on_trace(trace, account_traffic=True, mode="fast")
        assert "replay_records" not in trace.memo

    @pytest.mark.parametrize("mode", [None, "FAST", "bogus"])
    def test_unknown_mode_is_refused(self, mode):
        from repro.tse.simulator import TSESimulator

        with pytest.raises(ValueError, match="unknown replay mode"):
            TSESimulator(NODES, mode=mode)

    def test_exact_is_the_default_plane(self):
        from repro.experiments.runner import trace_for
        from repro.tse.simulator import TSESimulator, run_tse_on_trace

        simulator = TSESimulator(NODES)
        assert simulator.tse is not None and simulator.fast is None
        trace = trace_for("db2", 5_000, SEED, NODES)
        assert (run_tse_on_trace(trace).as_dict()
                == run_tse_on_trace(trace, mode="exact").as_dict())

    @pytest.mark.parametrize("mode", ["fast", "both"])
    def test_profiler_accounts_traffic_on_the_exact_plane_only(
        self, mode, monkeypatch, capsys
    ):
        spec = importlib.util.spec_from_file_location(
            "profile_hotpath", _HARNESS.with_name("profile_hotpath.py")
        )
        profiler = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(profiler)
        monkeypatch.setattr(
            sys, "argv", ["profile_hotpath.py", "db2", "--mode", mode, "--traffic"]
        )
        with pytest.raises(SystemExit) as exited:
            profiler.main()
        assert exited.value.code == 2
        assert "--traffic accounts the exact plane only" in capsys.readouterr().err

    def test_check_metric_zero_exact_demands_zero_fast(self):
        delta, within = check_metric("rel", 0.05, 0.0, 0.0)
        assert within
        _, within = check_metric("rel", 0.05, 0.0, 1.0)
        assert not within
