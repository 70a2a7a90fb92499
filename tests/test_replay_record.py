"""The replay record: one exact replay per trace and TSE configuration
serves Figure 11's traffic-accounted run and the timing model's labels.

Every view of the record must equal its standalone run, on every battery
workload, under a CMOB that wraps and a deep lookahead as well as the paper
configuration, with the warm-up boundary inside a chunk.  The record must
also replay exactly when its serving rules say, and never for a bare or a
fast-plane request.
"""

import functools

import pytest

from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import InterconnectConfig, SystemConfig, TSEConfig
from repro.experiments.runner import trace_for
from repro.system.timing import TimingSimulator
from repro.tse.simulator import TSESimulator, replay_record, run_tse_on_trace

ACCESSES = 20_000
WORKLOADS = (
    "em3d", "moldyn", "ocean", "sparse", "apache", "db2", "oracle", "zeus", "jbb",
)
CONFIGS = {
    "paper": TSEConfig.paper_default(),
    "tiny_cmob_wrap": TSEConfig(cmob_capacity=97, svb_entries=8),
    "deep_lookahead": TSEConfig.paper_default(lookahead=24),
}
INTERCONNECT = SystemConfig.isca2005().interconnect


def rechunked(trace, size=None):
    """A fresh copy of ``trace`` in ``size``-access chunks (None: one chunk)."""
    whole = TraceChunk()
    for chunk in trace.chunks():
        for column, part in zip(whole.to_payload(), chunk.to_payload()):
            column.extend(part)
    step = size or len(whole)
    copy = ChunkedTrace(trace.num_nodes, trace.name)
    for start in range(0, len(whole), step):
        copy.append_chunk(whole.slice(start, start + step))
    return copy


def buckets(stats):
    return stats.stream_length_hist.buckets()


def untrafficked(stats):
    return {k: v for k, v in stats.as_dict().items() if not k.startswith("traffic.")}


@functools.lru_cache(maxsize=None)
def standalone(workload, label):
    """The record's standalone counterparts, each its own exact replay of
    the trace as generated: bare at 30% warm-up, traffic-accounted at 30%,
    bare at warm-up 0, and outcome-recording at warm-up 0."""
    config, trace = CONFIGS[label], trace_for(workload, ACCESSES, 42, 16)

    def run(warmup, **kwargs):
        simulator = TSESimulator(16, config, mode="exact", **kwargs)
        return simulator, simulator.run(trace, warmup)

    recorder, _ = run(0.0, record_outcomes=True)
    return (run(0.3)[1],
            run(0.3, account_traffic=True, interconnect_config=INTERCONNECT)[1],
            run(0.0)[1], recorder.outcome_codes, recorder.outcome_leads)


@pytest.mark.parametrize("chunk_size", [None, 512], ids=["one_chunk", "chunk512"])
@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_windows_equal_standalone_runs(workload, label, chunk_size):
    # The 30% boundary splits the one chunk; with 512-access chunks it
    # splits one too, except on ocean (20,480 accesses), where it falls on
    # a chunk edge.
    trace = rechunked(trace_for(workload, ACCESSES, 42, 16), chunk_size)
    record = replay_record(trace, CONFIGS[label], INTERCONNECT)
    bare, traffic, whole, codes, leads = standalone(workload, label)
    assert untrafficked(record.measured) == bare.as_dict()
    assert buckets(record.measured) == buckets(bare)
    assert record.measured.traffic == traffic.traffic
    assert record.whole.traffic is None
    assert record.whole.as_dict() == whole.as_dict()
    assert buckets(record.whole) == buckets(whole)
    assert record.outcome_codes == codes
    assert record.outcome_leads == leads


@pytest.fixture()
def trace():
    """A fresh db2 trace object: no code column, no record."""
    return rechunked(trace_for("db2", 6_000, 42, 16), 2_048)


def traffic_run(trace, **kwargs):
    kwargs.setdefault("interconnect_config", INTERCONNECT)
    return run_tse_on_trace(trace, TSEConfig.paper_default(), account_traffic=True,
                            mode="exact", **kwargs)


def compare(trace):
    return TimingSimulator(tse_config=TSEConfig.paper_default()).compare(trace)


class TestReuse:
    def test_traffic_then_compare_replays_once(self, trace, replays):
        stats = traffic_run(trace)
        comparison = compare(trace)
        assert len(replays) == 1
        assert replays[0].traffic is not None and replays[0].record_outcomes
        assert traffic_run(trace) is stats  # a shared, read-only view
        assert compare(trace).functional is comparison.functional
        assert len(replays) == 1

    def test_compare_then_traffic_replays_twice(self, trace, replays):
        compare(trace)
        assert len(replays) == 1 and replays[0].traffic is None
        traffic_run(trace)
        assert len(replays) == 2 and replays[1].traffic is not None
        compare(trace)
        traffic_run(trace)
        assert len(replays) == 2

    def test_traffic_served_only_on_exact_match(self, trace, replays):
        traffic_run(trace)
        stats = traffic_run(trace, warmup_fraction=0.5)  # another boundary
        assert len(replays) == 2
        assert stats.accesses == len(trace) - int(len(trace) * 0.5)
        assert traffic_run(trace, warmup_fraction=0.5) is stats
        other = InterconnectConfig(width=2, height=8)
        traffic_run(trace, warmup_fraction=0.5, interconnect_config=other)
        assert len(replays) == 3
        assert replays[-1].traffic.config == other

    def test_default_interconnect_resolves_before_matching(self, trace, replays):
        default = TSESimulator._default_interconnect(trace.num_nodes)
        traffic_run(trace, interconnect_config=None)
        traffic_run(trace, interconnect_config=default)
        assert len(replays) == 1

    def test_grown_trace_replays_afresh(self, trace, replays):
        traffic_run(trace)
        extra = trace_for("db2", 6_000, 43, 16).chunks()[0].slice(0, 500)
        trace.append_chunk(extra)
        comparison = compare(trace)
        assert len(replays) == 2
        assert comparison.functional.accesses == len(trace)

    def test_bare_and_fast_requests_never_touch_the_record(self, trace, replays):
        config = TSEConfig.paper_default()
        bare = run_tse_on_trace(trace, config, mode="exact")
        whole = run_tse_on_trace(trace, config, warmup_fraction=0.0, mode="exact")
        run_tse_on_trace(trace, config, mode="fast")
        assert not hasattr(trace, "_replay_records")
        traffic_run(trace)
        # The repeated bare requests are answered by the trace's bare
        # records of the first two replays, not by the traffic run's
        # replay record: 4 replays in all.
        assert run_tse_on_trace(trace, config, mode="exact") is bare
        assert run_tse_on_trace(trace, config, warmup_fraction=0.0, mode="exact") is whole
        assert len(replays) == 4
        # A bare request after only a traffic run replays.
        other = rechunked(trace)
        traffic_run(other)
        run_tse_on_trace(other, config, mode="exact")
        assert len(replays) == 6

    def test_rejects_bad_warmup_fraction(self, trace):
        with pytest.raises(ValueError):
            traffic_run(trace, warmup_fraction=1.0)
