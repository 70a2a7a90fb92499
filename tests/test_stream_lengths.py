"""Figure 13 stream-length regression tests.

Per-workload assertions of the paper's qualitative shape at moderate trace
sizes, so the fig13 reproduction cannot silently regress:

* every commercial workload draws 30-45 % of its TSE coverage from streams
  shorter than eight blocks;
* every scientific workload is dominated by long streams (hit-weighted
  median above 100 blocks, short-stream share near zero).

Also locks in the stream-length threshold semantics (strictly-shorter for
the "short streams" statement, inclusive for the CDF axis) and the
Histogram prefix-sum cache invalidation.
"""

import pytest

from repro.analysis.streams import (
    SHORT_STREAM_THRESHOLD,
    fraction_of_hits_from_short_streams,
    median_stream_length,
    stream_length_cdf,
)
from repro.common.config import PAPER_LOOKAHEAD, TSEConfig
from repro.common.stats import Histogram
from repro.tse.simulator import TSESimulator
from repro.workloads import COMMERCIAL_WORKLOADS, SCIENTIFIC_WORKLOADS, get_workload
from repro.workloads.base import WorkloadParams

#: Large enough that streams recur after the cold first iterations, small
#: enough that the whole module stays fast.
ACCESSES = 80_000

_hist_cache = {}


def stream_hist(name):
    """Stream-length histogram for one workload at the paper configuration."""
    if name not in _hist_cache:
        params = WorkloadParams(num_nodes=16, seed=42, target_accesses=ACCESSES)
        trace = get_workload(name, params).generate_chunked()
        simulator = TSESimulator(
            16, TSEConfig.paper_default(lookahead=PAPER_LOOKAHEAD.get(name, 8))
        )
        _hist_cache[name] = simulator.run(trace, warmup_fraction=0.3).stream_length_hist
    return _hist_cache[name]


@pytest.mark.parametrize("name", COMMERCIAL_WORKLOADS)
def test_commercial_short_stream_share_in_paper_band(name):
    share = fraction_of_hits_from_short_streams(stream_hist(name))
    assert 0.30 <= share <= 0.45, f"{name} short-stream share {share:.3f}"


@pytest.mark.parametrize("name", SCIENTIFIC_WORKLOADS)
def test_scientific_streams_are_long(name):
    hist = stream_hist(name)
    share = fraction_of_hits_from_short_streams(hist)
    median = median_stream_length(hist)
    assert share < 0.05, f"{name} short-stream share {share:.3f}"
    assert median > 100, f"{name} hit-weighted median stream length {median}"


def test_commercial_exceeds_scientific_short_share():
    assert fraction_of_hits_from_short_streams(
        stream_hist("apache")
    ) > fraction_of_hits_from_short_streams(stream_hist("em3d"))


class TestThresholdSemantics:
    def test_short_share_is_strictly_shorter_than_threshold(self):
        hist = Histogram("streams")
        hist.record(SHORT_STREAM_THRESHOLD - 1, weight=7)  # shorter: counted
        hist.record(SHORT_STREAM_THRESHOLD, weight=8)  # exactly 8: excluded
        assert fraction_of_hits_from_short_streams(hist) == pytest.approx(7 / 15)

    def test_cdf_axis_is_inclusive(self):
        hist = Histogram("streams")
        hist.record(8, weight=8)
        points = dict(stream_length_cdf(hist, (7, 8)))
        assert points[7] == 0.0
        assert points[8] == 1.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            fraction_of_hits_from_short_streams(Histogram("streams"), threshold=0)


class TestHistogramPrefixCache:
    def test_cache_invalidated_on_record(self):
        hist = Histogram("h")
        hist.record(1, weight=2)
        assert hist.cumulative_fraction(1) == 1.0  # builds the cache
        hist.record(5, weight=2)  # must invalidate it
        assert hist.cumulative_fraction(1) == 0.5
        assert hist.percentile(1.0) == 5

    def test_matches_naive_scan(self):
        hist = Histogram("h")
        samples = [(3, 2), (9, 1), (1, 4), (9, 3), (20, 1)]
        for value, weight in samples:
            hist.record(value, weight)
        buckets = hist.buckets()
        total = sum(buckets.values())
        for upper in (0, 1, 3, 8, 9, 19, 20, 100):
            naive = sum(c for v, c in buckets.items() if v <= upper) / total
            assert hist.cumulative_fraction(upper) == pytest.approx(naive)
