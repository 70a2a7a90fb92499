"""Bare exact replays answered from the trace's bare records.

A bare exact ``run_tse_on_trace`` takes a recorded replay's statistics when
the request's SVB equals the record's or is larger than an evict-free
record's, and its CMOB equals the record's or is at least a wrap-free
record's high-water mark.  The differential test draws request sequences
over SVB and CMOB sizes that evict and wrap on two small traces, and checks
every answer against a fresh replay of a fresh copy of the trace.  The pins
check that Fig. 9's ladder replays only where the size binds, and that a
size no record can answer still replays.
"""

import functools

from hypothesis import example, given, settings, strategies as st

from repro.common.chunk import ChunkedTrace
from repro.common.config import TSEConfig
from repro.experiments.fig09_svb import SVB_SIZES as FIG09_SVB_SIZES
from repro.experiments.runner import trace_for
from repro.tse.simulator import TSESimulator, run_tse_on_trace
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams

SVB_SIZES = (4, 8, 32, 1 << 20)
CMOB_SIZES = (32, 97, 512, 262144)
WARMUPS = (0.0, 0.3)
NUM_NODES = 4


@functools.lru_cache(maxsize=None)
def source(workload):
    """A small 4-node trace: db2 (2,509 accesses) evicts at SVB 4, 8 and 32
    and sparse (2,826) at 4 and 8; their CMOBs reach 132 and 145 entries,
    so CMOBs of 32 and 97 wrap."""
    params = WorkloadParams(num_nodes=NUM_NODES, seed=7, target_accesses=2_500, scale=0.1)
    return get_workload(workload, params).generate_chunked()


def fresh(trace):
    """A copy with no memoized code columns or records."""
    return ChunkedTrace.from_payload(trace.to_payload())


def sized(svb_entries, cmob_capacity):
    return TSEConfig.paper_default().with_(
        svb_entries=svb_entries, cmob_capacity=cmob_capacity
    )


def observed(stats):
    return stats.as_dict(), stats.stream_length_hist.buckets()


@functools.lru_cache(maxsize=None)
def reference(workload, svb_entries, cmob_capacity, warmup):
    simulator = TSESimulator(NUM_NODES, sized(svb_entries, cmob_capacity))
    return observed(simulator.run(fresh(source(workload)), warmup))


REQUEST = st.tuples(
    st.sampled_from(SVB_SIZES), st.sampled_from(CMOB_SIZES), st.sampled_from(WARMUPS)
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(workload=st.sampled_from(("db2", "sparse")),
       requests=st.lists(REQUEST, min_size=1, max_size=8))
# A larger SVB after a replay that evicted.
@example(workload="db2", requests=[(8, 262144, 0.3), (32, 262144, 0.3)])
# A larger CMOB after a replay whose CMOB wrapped.
@example(workload="sparse", requests=[(8, 32, 0.3), (8, 512, 0.3)])
# A smaller SVB after a larger replay that never evicted.
@example(workload="db2", requests=[(1 << 20, 262144, 0.0), (8, 262144, 0.0)])
def test_every_answer_equals_a_fresh_replay(workload, requests):
    trace = fresh(source(workload))
    for svb_entries, cmob_capacity, warmup in requests:
        stats = run_tse_on_trace(trace, sized(svb_entries, cmob_capacity),
                                 warmup_fraction=warmup)
        assert observed(stats) == reference(workload, svb_entries, cmob_capacity, warmup), (
            svb_entries, cmob_capacity, warmup)


def test_fig09_ladder_replays_at_most_twice(replays):
    # On this trace the 512 B SVB evicts and the 2 KB one does not, so the
    # 2 KB replay answers 8 KB and "inf".
    trace = fresh(trace_for("db2", 1_000, 42, 16))
    for _, entries in FIG09_SVB_SIZES:
        run_tse_on_trace(trace, TSEConfig.paper_default().with_(svb_entries=entries))
    assert len(replays) <= 2


def test_a_size_no_record_answers_replays(replays):
    trace = fresh(source("db2"))
    run_tse_on_trace(trace, sized(8, 262144))
    assert replays[0].svb_evictions > 0
    run_tse_on_trace(trace, sized(32, 262144))  # larger than an evicting record's
    run_tse_on_trace(trace, sized(4, 262144))  # smaller than every record's
    run_tse_on_trace(trace, sized(32, 97))  # below the high-water mark
    run_tse_on_trace(trace, sized(32, 262144), warmup_fraction=0.0)  # another window
    assert len(replays) == 5
    run_tse_on_trace(trace, sized(32, 512))  # at least the 32-entry record's mark
    run_tse_on_trace(trace, sized(8, 262144))  # equal to an evicting record's
    assert len(replays) == 5


def test_a_grown_trace_replays_afresh(replays):
    trace = fresh(source("db2"))
    run_tse_on_trace(trace, sized(32, 262144))
    trace.append_chunk(source("sparse").chunks()[0].slice(0, 500))
    stats = run_tse_on_trace(trace, sized(32, 262144))
    assert len(replays) == 2
    assert stats.accesses == len(trace) - int(len(trace) * 0.3)
