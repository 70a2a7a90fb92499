"""Tests for the latency model, processor interval model and timing simulator."""

import pytest

from repro.common.config import InterconnectConfig, SystemConfig, TSEConfig
from repro.experiments.runner import trace_for
from repro.node.latency import LatencyModel
from repro.node.processor import ProcessorModel
from repro.system.timing import TimingSimulator
from repro.tse.simulator import Outcome, TSESimulator
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.base import WorkloadParams


@pytest.fixture()
def latency():
    return LatencyModel(SystemConfig.isca2005())


class TestLatencyModel:
    def test_latencies_ordered_by_distance(self, latency):
        system = latency.system
        l2_hit = system.l2.hit_latency
        local_memory = l2_hit + system.ns_to_cycles(
            system.protocol_controller_occupancy_ns + system.memory.access_latency_ns)
        assert l2_hit < local_memory < latency.remote_memory_cycles
        assert latency.coherent_read_cycles > l2_hit

    def test_stream_fetch_matches_coherent_read(self, latency):
        # Section 5.6: stream retrieval latency ~= consumption miss latency.
        assert latency.stream_fetch_cycles == pytest.approx(latency.coherent_read_cycles)

    def test_coherent_read_is_hundreds_of_cycles(self, latency):
        assert 300 < latency.coherent_read_cycles < 2000

    @pytest.mark.parametrize("width,height,hops", [
        (1, 1, 1.0),  # a lone node still pays one hop each way
        (2, 2, 4 / 3),
        (4, 2, 12 / 7),
        (4, 4, 32 / 15),
    ])
    def test_misses_cross_the_average_hop_count(self, width, height, hops):
        system = SystemConfig(
            num_nodes=width * height,
            interconnect=InterconnectConfig(width=width, height=height))
        latency = LatencyModel(system)
        hop = system.ns_to_cycles(system.interconnect.hop_latency_ns)
        controller = system.ns_to_cycles(system.protocol_controller_occupancy_ns)
        memory = system.ns_to_cycles(system.memory.access_latency_ns)
        l2_hit = system.l2.hit_latency
        assert latency.remote_memory_cycles == pytest.approx(
            l2_hit + 2 * hops * hop + 2 * controller + memory)
        assert latency.coherent_read_cycles == pytest.approx(
            2 * l2_hit + 3 * hops * hop + 3 * controller)


def _columns(specs):
    """Build one node's (timestamps, deps, codes, leads) columns from
    (gap, outcome, dependent, lead) tuples."""
    timestamps, deps, codes, leads = [], [], [], []
    timestamp = 0
    for gap, outcome, dependent, lead in specs:
        timestamp += gap
        timestamps.append(timestamp)
        deps.append(1 if dependent else 0)
        codes.append(int(outcome))
        leads.append(lead)
    return timestamps, deps, codes, leads


class TestProcessorModel:
    def _model(self):
        return ProcessorModel(SystemConfig.isca2005())

    def test_pure_hits_are_all_busy_time(self):
        model = self._model()
        result = model.run_node(0, *_columns([(100, Outcome.OTHER, False, 0)] * 10))
        assert result.coherent_read_stall_cycles == 0
        assert result.other_stall_cycles == 0
        assert result.busy_cycles == pytest.approx(1000 / 2.0)

    def test_dependent_consumptions_serialize(self):
        model = self._model()
        specs = [(10, Outcome.CONSUMPTION, True, 0)] * 5
        result = model.run_node(0, *_columns(specs))
        latency = LatencyModel(SystemConfig.isca2005()).coherent_read_cycles
        assert result.coherent_read_stall_cycles == pytest.approx(5 * latency, rel=0.05)
        assert result.mlp_area / result.mlp_busy_time == pytest.approx(1.0, abs=0.05)

    def test_independent_consumptions_overlap(self):
        model = self._model()
        specs = [(10, Outcome.CONSUMPTION, False, 0)] * 8
        result = model.run_node(0, *_columns(specs))
        latency = LatencyModel(SystemConfig.isca2005()).coherent_read_cycles
        assert result.coherent_read_stall_cycles < 8 * latency * 0.5
        assert result.mlp_area / result.mlp_busy_time > 2.0

    def test_svb_hit_with_large_lead_is_fully_covered(self):
        model = self._model()
        specs = [(2000, Outcome.OTHER, False, 0)] * 5 + [(2000, Outcome.SVB_HIT, False, 5)]
        result = model.run_node(0, *_columns(specs))
        assert result.fully_covered == 1
        assert result.partially_covered == 0
        assert result.coherent_read_stall_cycles == 0

    def test_svb_hit_with_no_lead_is_partial(self):
        model = self._model()
        specs = [(10, Outcome.SVB_HIT, True, 0)]
        result = model.run_node(0, *_columns(specs))
        assert result.partially_covered == 1
        assert result.coherent_read_stall_cycles > 0

    def test_mismatched_lengths_rejected(self):
        model = self._model()
        timestamps, deps, codes, leads = _columns([(10, Outcome.OTHER, False, 0)] * 3)
        with pytest.raises(ValueError):
            model.run_node(0, timestamps, deps, codes[:-1], leads)

    def test_writes_and_spins_do_not_add_coherent_stalls(self):
        model = self._model()
        specs = [(50, Outcome.WRITE, False, 0), (50, Outcome.SPIN, False, 0)] * 4
        result = model.run_node(0, *_columns(specs))
        assert result.coherent_read_stall_cycles == 0
        assert result.other_stall_cycles > 0  # spins charge synchronisation time


class TestIntervalModelLimits:
    """Exact cycle counts for the MSHR, ROB-window and drain branches of
    ``SystemConfig.isca2005()`` (base IPC 2, 256 ROB entries, 32 MSHRs)."""

    @pytest.fixture()
    def model(self):
        return ProcessorModel(SystemConfig.isca2005())

    def test_mshr_limit_waits_for_the_earliest_completion(self, model, latency):
        coherent = latency.coherent_read_cycles
        specs = [(1, Outcome.CONSUMPTION, False, 0)] * 33
        result = model.run_node(0, *_columns(specs))
        # Access i issues at clock 0.5 * i.  The 33rd finds all 32 MSHRs
        # busy and waits for the first miss (issued at 0.5) to complete.
        first_done = 0.5 + coherent
        last_done = first_done + coherent
        assert result.busy_cycles == 33 * 0.5
        assert result.coherent_read_stall_cycles == last_done - 16.5
        assert result.other_stall_cycles == 0
        assert result.total_cycles == last_done
        assert result.uncovered == 33
        assert result.mlp_area == 33 * coherent
        assert result.mlp_busy_time == last_done - 0.5

    def test_32_misses_fit_the_mshrs(self, model, latency):
        specs = [(1, Outcome.CONSUMPTION, False, 0)] * 32
        result = model.run_node(0, *_columns(specs))
        assert result.total_cycles == 16.0 + latency.coherent_read_cycles

    def test_rob_window_charges_an_outstanding_consumption_as_coherent(
        self, model, latency
    ):
        coherent = latency.coherent_read_cycles
        remote = latency.remote_memory_cycles
        # A consumption at instruction 2 (clock 1), then a cold miss 300
        # instructions later (clock 151): beyond the 256-entry window, so
        # the consumption's remaining latency stalls the processor.
        specs = [(2, Outcome.CONSUMPTION, False, 0), (300, Outcome.COLD_MISS, False, 0)]
        result = model.run_node(0, *_columns(specs))
        first_done = 1.0 + coherent
        assert result.coherent_read_stall_cycles == first_done - 151.0
        assert result.other_stall_cycles == (first_done + remote) - first_done
        assert result.total_cycles == 151.0 + (first_done - 151.0) + (
            (first_done + remote) - first_done
        )

    def test_rob_window_charges_an_outstanding_cold_miss_as_other(self, model, latency):
        coherent = latency.coherent_read_cycles
        remote = latency.remote_memory_cycles
        specs = [(2, Outcome.COLD_MISS, False, 0), (300, Outcome.CONSUMPTION, False, 0)]
        result = model.run_node(0, *_columns(specs))
        first_done = 1.0 + remote
        assert result.other_stall_cycles == first_done - 151.0
        assert result.coherent_read_stall_cycles == (first_done + coherent) - first_done
        assert result.uncovered == 1

    def test_misses_inside_the_rob_window_overlap(self, model, latency):
        specs = [(2, Outcome.CONSUMPTION, False, 0), (256, Outcome.COLD_MISS, False, 0)]
        result = model.run_node(0, *_columns(specs))
        # 256 instructions apart: no window stall, the cold miss issues at
        # clock 129 under the consumption; the end drain waits for both.
        coherent_done = 1.0 + latency.coherent_read_cycles
        cold_done = 129.0 + latency.remote_memory_cycles
        assert result.coherent_read_stall_cycles == coherent_done - 129.0
        assert result.other_stall_cycles == cold_done - coherent_done
        assert result.total_cycles == 129.0 + (coherent_done - 129.0) + (
            cold_done - coherent_done
        )

    def test_end_of_interval_drain_runs_in_completion_order(self, model, latency):
        coherent = latency.coherent_read_cycles
        remote = latency.remote_memory_cycles
        fetch = latency.stream_fetch_cycles + latency.block_serialization_cycles
        # Clock 1: a consumption.  Clock 2: an independent SVB hit whose
        # fetch was issued just now (lead 0), so it is partially covered
        # and stays in flight.  Clock 3: a cold miss, which completes first.
        specs = [
            (2, Outcome.CONSUMPTION, False, 0),
            (2, Outcome.SVB_HIT, False, 0),
            (2, Outcome.COLD_MISS, False, 0),
        ]
        result = model.run_node(0, *_columns(specs))
        consumption_done = 1.0 + coherent
        svb_arrival = 2.0 + fetch
        cold_done = 3.0 + remote
        assert cold_done < consumption_done < svb_arrival
        assert result.partially_covered == 1
        assert result.fully_covered == 0
        assert result.uncovered == 1
        assert result.other_stall_cycles == cold_done - 3.0
        assert result.coherent_read_stall_cycles == (
            (consumption_done - cold_done) + (svb_arrival - consumption_done)
        )
        assert result.total_cycles == 3.0 + result.other_stall_cycles + (
            result.coherent_read_stall_cycles
        )


class TestTimingSimulator:
    @pytest.fixture(scope="class")
    def comparison(self, medium_trace):
        simulator = TimingSimulator(SystemConfig.isca2005(), TSEConfig.paper_default(lookahead=18))
        return simulator.compare(medium_trace)

    def test_tse_is_faster_on_em3d(self, comparison):
        assert comparison.speedup > 1.2

    def test_breakdown_fractions_sum_to_one(self, comparison):
        for result in (comparison.base, comparison.tse):
            breakdown = result.breakdown()
            assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_tse_reduces_coherent_stalls(self, comparison):
        assert (
            comparison.tse.coherent_read_stall_cycles
            < comparison.base.coherent_read_stall_cycles
        )

    def test_busy_time_unchanged_by_tse(self, comparison):
        assert comparison.tse.busy_cycles == pytest.approx(comparison.base.busy_cycles, rel=0.01)

    def test_base_mlp_in_reasonable_range(self, comparison):
        assert 1.0 <= comparison.base.consumption_mlp < 16.0

    def test_coverage_split_consistent(self, comparison):
        timing = comparison.tse
        assert timing.total_consumptions > 0
        assert timing.full_coverage + timing.partial_coverage <= 1.0 + 1e-9

    def test_table3_row_fields(self, comparison):
        row = comparison.table3_row(trace_coverage=0.9, lookahead=18)
        assert row["lookahead"] == 18.0
        assert row["trace_coverage"] == 0.9
        assert 0.0 <= row["full_coverage"] <= 1.0


def db2_trace(chunk_size):
    params = WorkloadParams(num_nodes=16, seed=42, target_accesses=6_000)
    return get_workload("db2", params).generate_chunked(chunk_size=chunk_size)


class TestColumnarInputs:
    def test_compare_reads_columns_and_ignores_chunk_boundaries(self):
        trace = db2_trace(chunk_size=1 << 30)
        config = TSEConfig.paper_default().with_(svb_entries=4)
        packed = TimingSimulator(tse_config=config).compare(trace)
        assert "accesses" not in trace.memo  # labels and walks read the columns
        fine = TimingSimulator(tse_config=config).compare(db2_trace(chunk_size=512))
        assert fine.base.per_node == packed.base.per_node
        assert fine.tse.per_node == packed.tse.per_node
        assert fine.functional.as_dict() == packed.functional.as_dict()


#: The degenerate TSE configuration the base system was labelled with
#: before it was labelled by coherence classification: one compared
#: stream, no lookahead, a one-entry queue.  It never fetches a block.
def _degenerate(config):
    return config.with_(
        compared_streams=1,
        cmob_pointers_per_block=1,
        stream_lookahead=0,
        queue_depth=1,
        refill_threshold=1,
    )


class TestBaseLabels:
    """The base system's labels are the coherence classification, equal to
    the labels of a TSE that never streams."""

    CONFIGS = {
        "paper": TSEConfig.paper_default(),
        "tiny_svb": TSEConfig.paper_default().with_(svb_entries=4),
        "tiny_cmob_wrap": TSEConfig(cmob_capacity=97, svb_entries=8),
    }

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_base_labels_equal_a_degenerate_tse_run(self, workload):
        trace = trace_for(workload, 3_000, 42)
        for name, config in self.CONFIGS.items():
            reference = TSESimulator(
                trace.num_nodes, tse_config=_degenerate(config),
                record_outcomes=True, mode="exact",
            )
            stats = reference.run(trace)
            assert stats.blocks_fetched == 0, name
            simulator = TimingSimulator(tse_config=config)
            _, codes, leads = simulator._label_trace(trace, tse_enabled=False)
            assert list(codes) == list(reference.outcome_codes), name
            # The base system's leads are all 0, passed as None.
            assert leads is None and not any(reference.outcome_leads), name
            walked = simulator._run_timing(
                trace, reference.outcome_codes, reference.outcome_leads,
                tse_enabled=False, label="base",
            )
            assert simulator.run_base(trace).per_node == walked.per_node, name
