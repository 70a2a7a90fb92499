"""Benchmark configuration and the BENCH_core.json trajectory artifact.

Each benchmark regenerates one of the paper's tables/figures through the
experiment harness.  The workloads and trace sizes are scaled down so the
full suite completes in minutes; set the ``REPRO_BENCH_ACCESSES``
environment variable (or pass larger ``target_accesses`` through the
experiment modules directly) for higher-fidelity runs.

After a **full** benchmark session at the **default** trace size the suite
writes ``BENCH_core.json`` at the repo root so future PRs can track the
performance curve (subset or size-overridden runs leave the artifact
untouched — their numbers would not be comparable).  Schema (all times are
seconds of wall clock):

    {
      "_schema": "<this description>",
      "created_utc": <float unix timestamp>,
      "bench_accesses": <trace size used>,
      "workloads": [<benchmark workload subset>],
      "total_wallclock_s": <sum of per-benchmark call durations>,
      "benchmarks": {"<pytest nodeid>": <call duration>, ...},
      "functional_sim": {
        "chunk_size": <packed-chunk size used (REPRO_STREAM_CHUNK)>,
        "per_class": {
          "<workload>": {             # one per class: em3d / db2 / apache
            "accesses": <n>, "lookahead": <paper lookahead>,
            "wallclock_s": <best of two uncached paper-default runs, each
                            on a fresh copy of the trace, so each pays
                            the trace's coherence classification>,
            "accesses_per_s": <n / wallclock_s>,
            "fast_mode": {            # same point through REPRO_FAST_MODE
              "wallclock_s": <s>, "accesses_per_s": <n / s>,
              "speedup_vs_exact": <exact wallclock / fast wallclock>
            },
            "traffic": {              # same exact point, traffic accounted
              "wallclock_s": <best of two, 4x4 torus accountant attached,
                              fresh trace copy per sample>,
              "accesses_per_s": <n / s>,
              "slowdown_vs_exact": <traffic wallclock / exact wallclock>
            },
            "classify": {             # the once-per-trace coherence pass
              "wallclock_s": <best of two trace_codes() calls, each on a
                              fresh copy of the trace>,
              "accesses_per_s": <n / s>
            },
            "timing": {               # Figure 14's base-vs-TSE compare
              "wallclock_s": <best of two cold TimingSimulator.compare
                              calls, each on a fresh copy of the trace
                              (empty label cache), paper lookahead>,
              "accesses_per_s": <n / s>
            }
          }, ...
        },
        # db2's numbers duplicated at the top level so the series started
        # by PR 1 (db2-only) remains directly comparable:
        "workload": "db2", "accesses": <n>,
        "wallclock_s": <s>, "accesses_per_s": <n / s>
      },
      "service_throughput": {       # campaign jobs/s through the service
        "jobs": <n>, "accesses_per_job": <trace size>,
        "wallclock_s": <first submission (all jobs computed + stored)>,
        "jobs_per_s": <jobs / wallclock_s>,
        "resubmit_wallclock_s": <second submission (all jobs from store)>,
        "resubmit_jobs_per_s": <jobs / resubmit_wallclock_s>
      },
      "events_overhead": {          # telemetry plane cost (PR 9)
        "jobs": <n>, "accesses_per_job": <trace size>,
        "events_on_wallclock_s": <first submission, events enabled>,
        "events_on_jobs_per_s": <jobs / that>,
        "events_off_wallclock_s": <same campaign, fresh store, events off>,
        "events_off_jobs_per_s": <jobs / that>,
        "events_published": <log rows written by the events-on run>,
        "overhead_fraction": <(on - off) / off wallclock, negative = noise>
      },
      "store_integrity": {          # durability layer cost (PR 10)
        "jobs": <n>, "accesses_per_job": <trace size>,
        "checksums_on_wallclock_s": <first submission, row checksums on>,
        "checksums_on_jobs_per_s": <jobs / that>,
        "checksums_off_wallclock_s": <same campaign, fresh store, off>,
        "checksums_off_jobs_per_s": <jobs / that>,
        "overhead_fraction": <(on - off) / off wallclock, negative = noise>
      },
      "pr1_reference": {... seed vs. PR 1 wall-clock numbers ...}
    }
"""

import json
import time
from pathlib import Path

import pytest

from repro.common.config import bench_accesses

#: Trace size used by the benchmark runs (smaller than the experiments'
#: default so pytest-benchmark completes quickly, but large enough that the
#: scientific workloads run several solver iterations).  Override with the
#: REPRO_BENCH_ACCESSES environment variable (read through
#: ``repro.common.config.bench_accesses`` — RL005).
BENCH_ACCESSES = bench_accesses(default=80000)

#: Workload subset exercised per benchmark: one scientific, one OLTP, one web
#: server — enough to show each figure's qualitative shape quickly.  Use the
#: experiment modules' main() for the full seven-workload sweep.
BENCH_WORKLOADS = ("em3d", "db2", "apache")

#: Wall-clock numbers recorded when the performance subsystem landed (PR 1),
#: both measured at the default 80k-access benchmark size on the same
#: single-core container: the seed tier-1 benchmark suite vs. this tree.
PR1_REFERENCE = {
    "seed_benchmarks_wallclock_s": 426.8,
    "seed_design_space_sweep_s": 343.1,
}

#: Default trace size at which trajectory numbers are comparable across PRs.
DEFAULT_BENCH_ACCESSES = 80_000

_durations = {}
_expected_nodeids = set()
_skipped_nodeids = set()

#: Populated by benchmarks/test_bench_service.py: campaign jobs/s through
#: the service scheduler + persistent store (see the schema docstring).
_service_metrics = {}

#: Populated by benchmarks/test_bench_service.py: the same campaign timed
#: with the telemetry event plane on vs. off (see the schema docstring).
_events_metrics = {}

#: Populated by benchmarks/test_bench_service.py: the same campaign timed
#: with per-row payload checksums on vs. off (see the schema docstring).
_integrity_metrics = {}


@pytest.fixture(scope="session")
def bench_workloads():
    return BENCH_WORKLOADS


@pytest.fixture(scope="session")
def bench_accesses():
    return BENCH_ACCESSES


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def pytest_collection_modifyitems(session, config, items):
    for item in items:
        if "benchmarks" in str(item.fspath):
            _expected_nodeids.add(item.nodeid)


def pytest_runtest_logreport(report):
    # This conftest is registered session-wide; only track the benchmarks.
    if "benchmarks" not in str(report.fspath):
        return
    if report.when == "call":
        _durations[report.nodeid] = round(report.duration, 3)
    if report.skipped:
        _skipped_nodeids.add(report.nodeid)


def _functional_throughput():
    """Time one uncached paper-default run per workload class.

    One scientific (em3d), one OLTP (db2), one web (apache) exemplar, each
    replayed through the columnar fast path at its paper lookahead.  db2's
    numbers are duplicated at the top level for continuity with the
    db2-only series PR 1 started.  Each class is then replayed once more
    through REPRO_FAST_MODE, and once more through the exact plane with
    traffic accounting on (Figure 11's configuration), and the timing
    model compares base and TSE on it (Figure 14), so the fast plane's,
    the traffic plane's and the timing model's throughputs are tracked
    (and regression-gated) alongside the exact plane's.  Every sample runs
    on a fresh copy of the trace, so it pays the trace's coherence
    classification itself (the no-sharing case); the classification pass
    alone is the ``classify`` series.
    """
    from repro.coherence.protocol import trace_codes
    from repro.common.chunk import ChunkedTrace, stream_chunk_size
    from repro.common.config import (
        DEFAULT_WARMUP_FRACTION,
        PAPER_LOOKAHEAD,
        SystemConfig,
        TSEConfig,
    )
    from repro.experiments.runner import trace_for
    from repro.system.timing import TimingSimulator
    from repro.tse.simulator import run_tse_on_trace

    accesses = min(BENCH_ACCESSES, 80_000)
    system = SystemConfig.isca2005()
    interconnect = system.interconnect
    per_class = {}
    for workload in BENCH_WORKLOADS:
        lookahead = PAPER_LOOKAHEAD.get(workload, 8)
        trace = trace_for(workload, accesses, 42)
        config = TSEConfig.paper_default(lookahead=lookahead)

        def replay(mode, traffic=False):
            return lambda fresh: run_tse_on_trace(
                fresh, config,
                warmup_fraction=DEFAULT_WARMUP_FRACTION, mode=mode,
                account_traffic=traffic,
                interconnect_config=interconnect if traffic else None,
            )

        timings = {}
        for series, measure in (
            ("exact", replay("exact")),
            ("fast", replay("fast")),
            ("traffic", replay("exact", traffic=True)),
            ("timing", lambda fresh: TimingSimulator(system, config).compare(fresh)),
            ("classify", trace_codes),
        ):
            # Best of two: single runs swing ±35% on shared containers,
            # which is too noisy for a 25%-threshold regression gate.
            samples = []
            for _ in range(2):
                # A fresh trace object per sample: no label cache or code
                # column survives.
                fresh = ChunkedTrace.from_payload(trace.to_payload())
                start = time.perf_counter()
                measure(fresh)
                samples.append(time.perf_counter() - start)
            timings[series] = min(samples)
        elapsed, fast_elapsed = timings["exact"], timings["fast"]
        traffic_elapsed = timings["traffic"]
        timing_elapsed = timings["timing"]
        classify_elapsed = timings["classify"]
        per_class[workload] = {
            "accesses": accesses,
            "lookahead": lookahead,
            "wallclock_s": round(elapsed, 3),
            "accesses_per_s": round(accesses / elapsed) if elapsed > 0 else 0,
            "fast_mode": {
                "wallclock_s": round(fast_elapsed, 3),
                "accesses_per_s": (
                    round(accesses / fast_elapsed) if fast_elapsed > 0 else 0
                ),
                "speedup_vs_exact": (
                    round(elapsed / fast_elapsed, 3) if fast_elapsed > 0 else 0.0
                ),
            },
            "traffic": {
                "wallclock_s": round(traffic_elapsed, 3),
                "accesses_per_s": (
                    round(accesses / traffic_elapsed) if traffic_elapsed > 0 else 0
                ),
                "slowdown_vs_exact": (
                    round(traffic_elapsed / elapsed, 3) if elapsed > 0 else 0.0
                ),
            },
            "timing": {
                "wallclock_s": round(timing_elapsed, 3),
                "accesses_per_s": (
                    round(accesses / timing_elapsed) if timing_elapsed > 0 else 0
                ),
            },
            "classify": {
                "wallclock_s": round(classify_elapsed, 3),
                "accesses_per_s": (
                    round(accesses / classify_elapsed) if classify_elapsed > 0 else 0
                ),
            },
        }
    headline = per_class["db2"]
    return {
        "chunk_size": stream_chunk_size(),
        "per_class": per_class,
        "workload": "db2",
        "accesses": headline["accesses"],
        "wallclock_s": headline["wallclock_s"],
        "accesses_per_s": headline["accesses_per_s"],
    }


def pytest_sessionfinish(session, exitstatus):
    # Only refresh the committed trajectory artifact when every collected
    # (non-skipped) benchmark actually ran at the default trace size: a
    # '-k'/'::' subset or a REPRO_BENCH_ACCESSES override would clobber it
    # with numbers that are incomparable across PRs.
    if BENCH_ACCESSES != DEFAULT_BENCH_ACCESSES:
        return
    ran_everything = _expected_nodeids and not (
        _expected_nodeids - _skipped_nodeids - set(_durations)
    )
    # A file-subset invocation collects (and therefore "completes") only its
    # own items; require every benchmark file to have contributed so partial
    # runs never overwrite the committed trajectory.
    ran_files = {Path(nodeid.split("::")[0]).name for nodeid in _durations}
    expected_files = {
        path.name
        for path in Path(__file__).resolve().parent.glob("test_bench_*.py")
    }
    if not ran_everything or not expected_files <= ran_files:
        return
    artifact = {
        "_schema": (
            "Benchmark trajectory artifact; see benchmarks/conftest.py "
            "docstring for the field-by-field schema."
        ),
        "created_utc": time.time(),
        "bench_accesses": BENCH_ACCESSES,
        "workloads": list(BENCH_WORKLOADS),
        "total_wallclock_s": round(sum(_durations.values()), 3),
        "benchmarks": dict(sorted(_durations.items())),
        "functional_sim": _functional_throughput(),
        "service_throughput": dict(_service_metrics) or None,
        "events_overhead": dict(_events_metrics) or None,
        "store_integrity": dict(_integrity_metrics) or None,
        "pr1_reference": PR1_REFERENCE,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
