"""Integration tests for the TSE system glue and the trace-driven simulator."""

import functools

import pytest

from repro.coherence.directory import Directory
from repro.coherence.messages import MESSAGE_TYPES, MessageType
from repro.common.config import TSEConfig
from repro.common.types import TYPE_READ, TYPE_WRITE
from repro.experiments.runner import trace_for
from repro.tse.engine import TemporalStreamingSystem
from repro.tse.simulator import Outcome, TSESimulator


@pytest.fixture(scope="module")
def make_trace(column_trace):
    """Builder: ``(node, address, type_code)`` accesses -> a trace whose
    nodes each retire one access every 10 instructions."""
    def build(accesses, num_nodes=4, name="synthetic"):
        timestamp = [0] * num_nodes
        rows = []
        for node, address, kind in accesses:
            timestamp[node] += 10
            rows.append((node, address, kind, 0, timestamp[node], 0))
        return column_trace(rows, num_nodes, name)

    return build


@pytest.fixture(scope="module")
def migratory_trace(make_trace):
    """Builder: each round, a different node reads then writes the same
    block sequence."""
    def build(rounds=6, blocks=(100, 101, 102, 103, 104, 105), num_nodes=4):
        accesses = []
        for round_index in range(rounds):
            node = round_index % num_nodes
            for block in blocks:
                accesses.append((node, block, TYPE_READ))
                accesses.append((node, block, TYPE_WRITE))
        return make_trace(accesses, num_nodes=num_nodes)

    return build


class RecordingAccountant:
    """Traffic accountant stand-in that lists every emitted message."""

    def __init__(self):
        self.sent = []

    def emit(self, kind, src, dst):
        self.sent.append((MESSAGE_TYPES[kind], src, dst))

    def emit_addresses(self, src, dst, count):
        self.sent.append((MessageType.ADDRESS_STREAM, src, dst, count))


class TestTemporalStreamingSystem:
    def _system(self, num_nodes=2, **config_overrides):
        config = TSEConfig(
            cmob_capacity=256, svb_entries=16, stream_queues=4,
            stream_lookahead=4, compared_streams=2, **config_overrides
        )
        directory = Directory(num_nodes, config.cmob_pointers_per_block)
        return TemporalStreamingSystem(num_nodes, config, directory), directory

    def test_consumption_records_order_and_pointer(self):
        tse, directory = self._system()
        tse.on_consumption(0, 50)
        assert tse.nodes[0].cmob._appended == 1
        pointers = directory._entries[50].cmob_pointers
        assert pointers == [(0, 0)]  # (node, offset)

    def test_stream_located_from_recorded_order(self):
        tse, _ = self._system()
        # Node 0 records a consumption sequence.
        for address in (10, 11, 12, 13, 14):
            tse.on_consumption(0, address)
        # Node 1 misses on the head of that sequence: the stream {11..} is
        # located on node 0's CMOB and fetched.
        queue_id, fetches = tse.on_consumption(1, 10)
        assert queue_id >= 0
        # Fetches arrive as per-queue batches: (queue_id, [addresses]).
        assert [(q, list(a)) for q, a in fetches] == [(queue_id, [11, 12, 13, 14])]

    def test_svb_hit_records_in_cmob_and_directory(self):
        tse, directory = self._system()
        for address in (10, 11, 12):
            tse.on_consumption(0, address)
        _, fetches = tse.on_consumption(1, 10)
        assert tse.deliver_all(1, fetches, 0.0, {}) == (2, 0)
        appended_before = tse.nodes[1].cmob._appended
        entry, _ = tse.on_svb_hit(1, 11)
        assert entry is not None
        assert tse.nodes[1].cmob._appended == appended_before + 1
        assert directory._entries[11].cmob_pointers[0] == (1, appended_before)

    def test_write_invalidates_streamed_blocks_everywhere(self):
        tse, _ = self._system()
        for address in (10, 11, 12):
            tse.on_consumption(0, address)
        _, fetches = tse.on_consumption(1, 10)
        assert tse.deliver_all(1, fetches, 0.0, {}) == (2, 0)
        invalidated = tse.on_write(0, 11)
        assert invalidated == 1
        assert 11 not in tse.nodes[1].engine.svb

    def test_message_sink_sees_tse_messages(self):
        config = TSEConfig(cmob_capacity=64, svb_entries=8, stream_lookahead=2)
        directory = Directory(2, config.cmob_pointers_per_block)
        recorder = RecordingAccountant()
        tse = TemporalStreamingSystem(2, config, directory, traffic=recorder)
        tse.on_consumption(0, 10)
        tse.on_consumption(0, 11)
        _, fetches = tse.on_consumption(1, 10)
        tse.deliver_all(1, fetches, 0.0, {})
        assert recorder.sent == [
            (MessageType.CMOB_POINTER_UPDATE, 0, 0),  # block 10's home is node 0
            (MessageType.CMOB_POINTER_UPDATE, 0, 1),
            (MessageType.STREAM_REQUEST, 0, 0),       # home -> the recorded consumer
            (MessageType.ADDRESS_STREAM, 0, 1, 1),    # node 0's CMOB window {11}
            (MessageType.CMOB_POINTER_UPDATE, 1, 0),
            (MessageType.STREAMED_DATA_REQUEST, 1, 1),
            (MessageType.STREAMED_DATA_REPLY, 1, 1),  # never written: the home replies
        ]


class TestTSESimulator:
    def test_migratory_trace_gets_high_coverage(self, migratory_trace):
        trace = migratory_trace(rounds=12)
        simulator = TSESimulator(4, TSEConfig.paper_default(lookahead=8))
        stats = simulator.run(trace, warmup_fraction=0.25)
        assert stats.total_consumptions > 0
        assert stats.coverage > 0.6

    def test_random_trace_gets_low_coverage(self, make_trace):
        import random

        rng = random.Random(3)
        accesses = []
        for _ in range(3000):
            node = rng.randrange(4)
            block = rng.randrange(400)
            kind = TYPE_WRITE if rng.random() < 0.3 else TYPE_READ
            accesses.append((node, block, kind))
        trace = make_trace(accesses)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.25)
        assert stats.coverage < 0.3

    def test_consumption_accounting_consistency(self, migratory_trace):
        trace = migratory_trace(rounds=10)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace)
        assert stats.total_consumptions == stats.svb_hits + stats.remaining_consumptions
        assert stats.blocks_fetched >= stats.svb_hits
        assert stats.discarded_blocks <= stats.blocks_fetched

    def test_outcomes_parallel_to_trace(self, migratory_trace):
        trace = migratory_trace(rounds=5)
        simulator = TSESimulator(4, TSEConfig.paper_default(), record_outcomes=True)
        simulator.run(trace)
        assert len(simulator.outcome_codes) == len(simulator.outcome_leads) == len(trace)
        codes = {Outcome(code) for code in simulator.outcome_codes}
        assert Outcome.WRITE in codes
        assert Outcome.CONSUMPTION in codes or Outcome.SVB_HIT in codes

    def test_warmup_resets_counters_but_keeps_state(self, migratory_trace):
        trace = migratory_trace(rounds=12)
        warm = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.5)
        cold = TSESimulator(4, TSEConfig.paper_default()).run(trace, warmup_fraction=0.0)
        assert warm.accesses < cold.accesses
        assert warm.coverage >= cold.coverage

    def test_invalid_warmup_fraction_rejected(self, migratory_trace):
        trace = migratory_trace(rounds=2)
        with pytest.raises(ValueError):
            TSESimulator(4).run(trace, warmup_fraction=1.5)

    def test_zero_lookahead_behaves_as_base_system(self, migratory_trace):
        trace = migratory_trace(rounds=8)
        config = TSEConfig(stream_lookahead=0, queue_depth=1, refill_threshold=1)
        stats = TSESimulator(4, config).run(trace)
        assert stats.svb_hits == 0
        assert stats.coverage == 0.0

    def test_traffic_accounting_present_when_enabled(self, migratory_trace):
        trace = migratory_trace(rounds=8)
        simulator = TSESimulator(4, TSEConfig.paper_default(), account_traffic=True)
        stats = simulator.run(trace)
        assert stats.traffic is not None
        assert stats.traffic["baseline.total_bytes"] > 0

    def test_stream_length_histogram_weighted_by_hits(self, migratory_trace):
        trace = migratory_trace(rounds=12)
        stats = TSESimulator(4, TSEConfig.paper_default()).run(trace)
        weight = sum(stats.stream_length_hist.buckets().values())
        assert weight == pytest.approx(stats.svb_hits, abs=1)


#: Reference-battery cells that reach every traffic sink site: the paper
#: geometry, the general N-FIFO path, SVB evictions inside ``deliver_all``
#: and stale CMOB pointers after wraparound.
OBSERVED_CONFIGS = ("paper", "four_streams", "tiny_svb", "tiny_cmob_wrap")


@functools.lru_cache(maxsize=None)
def _db2_trace():
    return trace_for("db2", 12_000, 42, 16)


def _observed(stats):
    """Every simulated statistic of a run except its traffic volumes."""
    row = {k: v for k, v in stats.as_dict().items() if not k.startswith("traffic.")}
    row["stream_lengths"] = sorted(stats.stream_length_hist.buckets().items())
    return row


class TestTrafficAccounting:
    @pytest.mark.parametrize("label", OBSERVED_CONFIGS)
    def test_traffic_accounting_only_observes(self, label, battery_configs):
        """Counting messages never changes what the replay does: a run is
        identical with and without an accountant."""
        config = battery_configs[label]
        trace = _db2_trace()
        counted = TSESimulator(16, config, account_traffic=True).run(
            trace, warmup_fraction=0.3
        )
        assert counted.traffic["overhead.total_bytes"] > 0
        reference = TSESimulator(16, config).run(trace, warmup_fraction=0.3)
        assert _observed(counted) == _observed(reference)

    def test_traffic_volumes_include_the_warmup_window(self):
        trace = _db2_trace()
        config = TSEConfig.paper_default()
        whole = TSESimulator(16, config, account_traffic=True).run(
            trace, warmup_fraction=0.0
        )
        measured = TSESimulator(16, config, account_traffic=True).run(
            trace, warmup_fraction=0.3
        )
        # The warm-up reset restarts the TSE counters but not the accountant.
        assert measured.total_consumptions < whole.total_consumptions
        assert measured.traffic == whole.traffic
