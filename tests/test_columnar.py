"""Columnar trace backbone regressions: packed chunks, views, warm runs.

Locks in the contracts the columnar replay rests on:

1. chunk size never changes what a workload emits, and the
   ``ChunkedTrace.accesses`` view decodes every column exactly;
2. chunk boundaries are invisible to the replay;
3. a trace's coherence classification and base-system messages do not
   depend on TSE: a traffic-accounted replay, of a trace object or of
   column-less chunks, ends with the base-system counts a
   one-access-at-a-time protocol walk sends without the reads its SVB hits
   served, and the per-node consumption orders read off the code column
   equal such a walk too;
4. a warm-state run is the measured window of one replay of ramp plus
   window, wherever the ramp ends.
"""

import collections
import functools
import importlib.util
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import protocol as coherence
from repro.coherence.messages import MESSAGE_TYPES
from repro.coherence.protocol import (
    READ_COHERENT,
    CoherenceProtocol,
    coherence_codes,
    trace_codes,
    trace_consumptions,
    trace_traffic,
    transaction_messages,
)
from repro.common.chunk import DEFAULT_STREAM_CHUNK, ChunkedTrace, TraceChunk
from repro.common.config import TSEConfig
from repro.common.types import (
    ACCESS_TYPE_FROM_CODE,
    TYPE_ATOMIC,
    TYPE_IS_WRITE,
    TYPE_READ,
    TYPE_SPIN_READ,
    TYPE_WRITE,
    Consumption,
)
from repro.tse.simulator import Outcome, TSESimulator
from repro.workloads import available_workloads, get_workload
from repro.workloads.base import WorkloadParams

SMALL = WorkloadParams(num_nodes=4, seed=11, target_accesses=4_000)

_BATTERY = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reference_battery.py"
)
_spec = importlib.util.spec_from_file_location("reference_battery", _BATTERY)
reference_battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_battery)


@functools.lru_cache(maxsize=None)
def small_trace(name: str) -> ChunkedTrace:
    return get_workload(name, SMALL).generate_chunked(chunk_size=512)


def one_chunk_trace(name: str) -> ChunkedTrace:
    """The SMALL trace packed as a single chunk."""
    return get_workload(name, SMALL).generate_chunked(chunk_size=1 << 30)


def records(trace: ChunkedTrace):
    """The trace's ``(node, block, type_code, pc, timestamp, dep)`` rows."""
    return [row for chunk in trace.chunks() for row in zip(*chunk.to_payload())]


def random_trace(num_nodes, steps, chunk_size):
    """``(node, block, type_code)`` steps packed into ``chunk_size`` chunks."""
    rows = [(node, block, type_code, 0, tick, 0)
            for tick, (node, block, type_code) in enumerate(steps)]
    trace = ChunkedTrace(num_nodes=num_nodes, name="random")
    for start in range(0, len(rows), chunk_size):
        chunk = TraceChunk()
        chunk.extend_packed(rows[start:start + chunk_size])
        trace.append_chunk(chunk)
    return trace


def stepwise_consumptions(trace: ChunkedTrace):
    """Reference for ``trace_consumptions``: step the protocol one access at
    a time and read the block's last writer at each coherent read."""
    protocol = CoherenceProtocol(trace.num_nodes)
    per_node = [[] for _ in range(trace.num_nodes)]
    for global_index, (node, block, type_code, _, timestamp, _) in enumerate(records(trace)):
        if TYPE_IS_WRITE[type_code]:
            protocol.write_ints(node, block)
        elif protocol.read_ints(node, block, type_code == TYPE_SPIN_READ) == READ_COHERENT:
            per_node[node].append(Consumption(
                node, block, len(per_node[node]), global_index, timestamp,
                protocol._blocks[block].last_writer,
            ))
    return per_node


def live_protocol_counts(trace: ChunkedTrace, served):
    """Reference for a traffic-accounted replay's base-system counts: step a
    fresh protocol one access at a time and count every transaction's
    messages, except those of the reads at the positions in ``served`` (the
    reads an SVB hit served), as ``{(kind, src, dst): count}``."""
    protocol = CoherenceProtocol(trace.num_nodes)
    counts = collections.Counter()

    def emit(kind, src, dst):
        counts[(kind, src, dst)] += 1

    for position, (node, block, type_code, *_) in enumerate(records(trace)):
        if TYPE_IS_WRITE[type_code]:
            transaction_messages(protocol, node, block, emit)
            protocol.write_ints(node, block)
        else:
            code = protocol.read_ints(node, block, type_code == TYPE_SPIN_READ)
            if position not in served:
                transaction_messages(protocol, node, block, emit, code)
    return dict(counts)


def baseline_counts(simulator: TSESimulator):
    """The base-system message kinds of a replay's accountant, as
    ``{(kind, src, dst): count}`` (TSE's own kinds left out)."""
    accountant = simulator.traffic
    n = accountant._num_nodes
    counts = {}
    for index, count in enumerate(accountant._counts):
        kind, pair = divmod(index, n * n)
        if count and not MESSAGE_TYPES[kind].is_tse_overhead:
            counts[(kind, *divmod(pair, n))] = count
    return counts


def served_reads(trace, config, entry):
    """A traffic-accounted replay through ``entry`` and the positions of
    its SVB hits, read off its outcome column.  ``run`` starts from the
    trace's memoized count table (``trace_traffic``); ``run_chunks`` gets
    column-less chunks and counts each one's messages as it classifies it."""
    simulator = TSESimulator(
        trace.num_nodes, config, account_traffic=True, record_outcomes=True
    )
    if entry == "run":
        simulator.run(trace, warmup_fraction=0.3)
    else:
        simulator.run_chunks(trace.chunks(), trace.name, int(len(trace) * 0.3))
    served = {
        position for position, outcome in enumerate(simulator.outcome_codes)
        if outcome == Outcome.SVB_HIT
    }
    return simulator, served


class TestChunkedEmission:
    @pytest.mark.parametrize("name", available_workloads())
    def test_chunk_size_does_not_change_emission(self, name):
        """512-access chunks pack exactly the accesses one chunk holds."""
        one_chunk = one_chunk_trace(name)
        assert len(one_chunk.chunks()) == 1
        assert records(small_trace(name)) == records(one_chunk)
        assert len(small_trace(name)) == len(one_chunk)

    def test_chunk_sizes_are_fixed(self):
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        chunks = chunked.chunks()
        assert all(len(chunk) == 512 for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= 512

    @pytest.mark.parametrize("name", ("em3d", "apache", "oracle"))
    def test_accesses_decode_every_column(self, name):
        trace = get_workload(name, SMALL).generate_chunked(chunk_size=512)
        rows = records(trace)
        assert {row[2] for row in rows} >= {TYPE_READ, TYPE_WRITE}
        decoded = [
            (a.node, a.address, a.access_type, a.pc, a.timestamp, a.dependent)
            for a in trace.accesses
        ]
        assert decoded == [
            (node, block, ACCESS_TYPE_FROM_CODE[type_code], pc, timestamp, bool(dep))
            for node, block, type_code, pc, timestamp, dep in rows
        ]

    def test_payload_round_trip(self):
        chunked = get_workload("em3d", SMALL).generate_chunked(chunk_size=512)
        rebuilt = ChunkedTrace.from_payload(chunked.to_payload())
        assert records(rebuilt) == records(chunked)
        assert rebuilt.num_nodes == chunked.num_nodes
        assert rebuilt.name == chunked.name

    def test_chunk_node_validation(self):
        trace = ChunkedTrace(num_nodes=2)
        chunk = TraceChunk()
        chunk.extend_packed([(5, 10, 0, 0, 1, 0)])
        with pytest.raises(ValueError):
            trace.append_chunk(chunk)


class TestChunkedReplay:
    def test_chunked_run_equals_one_chunk_run(self):
        """TSESimulator.run on 512-access chunks == run on one chunk."""
        config = TSEConfig.paper_default(lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        from_chunks = TSESimulator(4, config).run(chunked, warmup_fraction=0.3)
        from_one = TSESimulator(4, config).run(one_chunk_trace("db2"), warmup_fraction=0.3)
        assert from_chunks.as_dict() == from_one.as_dict()
        assert (
            from_chunks.stream_length_hist.buckets()
            == from_one.stream_length_hist.buckets()
        )

    def test_chunk_boundaries_are_invisible(self):
        config = TSEConfig.paper_default(lookahead=8)
        coarse = get_workload("em3d", SMALL).generate_chunked(chunk_size=4096)
        fine = get_workload("em3d", SMALL).generate_chunked(chunk_size=128)
        a = TSESimulator(4, config).run(coarse, warmup_fraction=0.3)
        b = TSESimulator(4, config).run(fine, warmup_fraction=0.3)
        assert a.as_dict() == b.as_dict()


@st.composite
def shared_sequences(draw):
    """A 2-8-node trace with adversarial sharing: producer/consumer rounds
    over one small block sequence (repeated consumption orders are what let
    streams form and hit), plus writes, reads, spins and atomics by any
    node at random positions."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    block = st.integers(min_value=1, max_value=40)
    blocks = draw(st.lists(block, min_size=2, max_size=12, unique=True))
    steps = []
    rounds = st.tuples(node, node, st.integers(min_value=0, max_value=2))
    for writer, reader, turn in draw(st.lists(rounds, min_size=1, max_size=24)):
        order = blocks[turn:] + blocks[:turn]
        steps += [(writer, address, TYPE_WRITE) for address in order]
        steps += [(reader, address, TYPE_READ) for address in order]
    noise = st.tuples(st.integers(min_value=0, max_value=len(steps)), node, block,
                      st.sampled_from((TYPE_READ, TYPE_WRITE, TYPE_SPIN_READ, TYPE_ATOMIC)))
    for position, *access in sorted(draw(st.lists(noise, max_size=60)), reverse=True):
        steps.insert(position, tuple(access))
    return num_nodes, steps


class TestTrafficFold:
    """A traffic-accounted replay starts from the base system's messages,
    the trace's count table (``trace_traffic``) for ``run`` or each chunk's
    count as it is classified for ``run_chunks``, and takes back the
    messages of the coherent reads its SVB hits served.  Its base-system
    counts must equal a live protocol stepped one access at a time that
    skips those reads."""

    @pytest.mark.parametrize("entry", ("run", "run_chunks"))
    @pytest.mark.parametrize("label, config", reference_battery.CONFIGS,
                             ids=[label for label, _ in reference_battery.CONFIGS])
    @pytest.mark.parametrize("name", available_workloads())
    def test_replay_baseline_equals_a_live_protocol_count(self, name, label, config, entry):
        trace = small_trace(name)
        simulator, served = served_reads(trace, config, entry)
        assert baseline_counts(simulator) == live_protocol_counts(trace, served)

    @given(
        case=shared_sequences(),
        chunk_size=st.integers(min_value=16, max_value=128),
        cmob_capacity=st.integers(min_value=1, max_value=24),
        svb_entries=st.integers(min_value=1, max_value=4),
        lookahead=st.integers(min_value=1, max_value=8),
        compared_streams=st.integers(min_value=1, max_value=2),
        entry=st.sampled_from(("run", "run_chunks")),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sharing_baseline_equals_a_live_protocol_count(
        self, case, chunk_size, cmob_capacity, svb_entries, lookahead,
        compared_streams, entry,
    ):
        """CMOBs that wrap, 1-4-entry SVBs, streams that form and hit."""
        num_nodes, steps = case
        trace = random_trace(num_nodes, steps, chunk_size)
        config = TSEConfig(
            cmob_capacity=cmob_capacity, svb_entries=svb_entries,
            stream_lookahead=lookahead, compared_streams=compared_streams,
            cmob_pointers_per_block=2,
        )
        simulator, served = served_reads(trace, config, entry)
        assert baseline_counts(simulator) == live_protocol_counts(trace, served)

    def test_fold_is_memoized_until_the_trace_grows(self):
        trace = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        first = trace_traffic(trace)
        assert trace_traffic(trace) is first
        extra = TraceChunk()
        extra.extend_packed([(0, 10, 0, 0, 0, 0)])  # a cold read: two messages
        trace.append_chunk(extra)
        grown = trace_traffic(trace)
        assert grown is not first
        assert sum(grown) == sum(first) + 2

    def test_cold_traffic_replay_steps_the_state_machine_once(self, monkeypatch):
        """The fold's pass also memoizes the code columns, so a traffic
        replay of a fresh trace classifies each read exactly once."""
        trace = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        reads = sum(
            not TYPE_IS_WRITE[type_code] for chunk in trace.chunks()
            for type_code in chunk.types.tolist()
        )
        classified = []
        read_ints = CoherenceProtocol.read_ints

        def counted(self, node, address, is_spin):
            classified.append(address)
            return read_ints(self, node, address, is_spin)

        monkeypatch.setattr(CoherenceProtocol, "read_ints", counted)
        TSESimulator(4, TSEConfig.paper_default(), account_traffic=True).run(
            trace, warmup_fraction=0.3
        )
        assert len(classified) == reads
        columns = trace_codes(trace)
        assert len(classified) == reads
        monkeypatch.setattr(CoherenceProtocol, "read_ints", read_ints)
        assert columns == list(coherence_codes(CoherenceProtocol(4), trace.chunks()))


class TestCodeColumn:
    def test_column_is_memoized_until_the_trace_grows(self):
        trace = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        first = trace_codes(trace)
        assert trace_codes(trace) is first
        extra = TraceChunk()
        extra.extend_packed([(0, 10, 0, 0, 0, 0)])
        trace.append_chunk(extra)
        grown = trace_codes(trace)
        assert grown is not first and grown[:-1] == first
        assert len(grown[-1]) == 1


class TestTraceConsumptions:
    @pytest.mark.parametrize("name", available_workloads())
    def test_matches_a_stepwise_protocol_walk(self, name):
        # A fresh trace: small_trace's are shared, and this one must be
        # classified by trace_consumptions itself.
        trace = get_workload(name, SMALL).generate_chunked(chunk_size=512)
        assert trace_consumptions(trace) == stepwise_consumptions(trace)

    @given(case=shared_sequences(), chunk_size=st.integers(min_value=16, max_value=128))
    @settings(max_examples=60, deadline=None)
    def test_random_sharing_matches_a_stepwise_protocol_walk(self, case, chunk_size):
        num_nodes, steps = case
        trace = random_trace(num_nodes, steps, chunk_size)
        assert trace_consumptions(trace) == stepwise_consumptions(trace)

    def test_second_call_reuses_the_memo(self, monkeypatch):
        trace = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        first = trace_consumptions(trace)

        def reclassify(*_):
            raise AssertionError("the trace was classified again")

        monkeypatch.setattr(coherence, "coherence_codes", reclassify)
        assert trace_consumptions(trace) == first


class TestWarmRun:
    """A window measured after a replayed ramp (the warm-state study's
    ``run_chunks`` with ``warmup_accesses``) equals a replay of the same
    trace against its memoized code columns with the statistics reset at
    the ramp's end, wherever that boundary falls."""

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    @pytest.mark.parametrize("boundary", ["zero", "inside_chunk", "chunk_boundary"])
    def test_warm_run_matches_run_chunks(self, mode, boundary):
        from repro.experiments.runner import trace_for

        warm, measure = {
            "zero": (0, 5_000),
            "inside_chunk": (3_000, 3_000),
            "chunk_boundary": (DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_CHUNK),
        }[boundary]
        # db2 streams from its first accesses, so the ramp leaves CMOB and
        # queue state that the window reads; a short em3d ramp is all cold
        # misses and would pass with a cold window too.
        config = TSEConfig.paper_default(lookahead=8)
        trace = trace_for("db2", warm + measure, 42)
        if boundary == "chunk_boundary":
            assert len(trace.chunks()[0]) == warm
        straight = TSESimulator(16, config, mode=mode).run_chunks(
            trace.chunks(), name="db2", warmup_accesses=warm
        )
        fraction = warm / len(trace)
        assert int(len(trace) * fraction) == warm
        stats = TSESimulator(16, config, mode=mode).run(
            ChunkedTrace.from_payload(trace.to_payload()), warmup_fraction=fraction,
        )
        assert stats.accesses == len(trace) - warm
        assert stats.as_dict() == straight.as_dict()
        assert stats.stream_length_hist.buckets() == straight.stream_length_hist.buckets()

    def test_warm_state_point_is_deterministic(self):
        from repro.experiments.warm_state import _point

        def point():
            return _point("db2", None, target_accesses=3_000, seed=42, warm_accesses=3_000)

        assert point() == point()

    def test_negative_ramp_and_empty_window_rejected(self):
        from repro.experiments.warm_state import _point

        with pytest.raises(ValueError):
            _point("db2", None, target_accesses=1_000, seed=42, warm_accesses=-1)
        with pytest.raises(ValueError):
            _point("db2", None, target_accesses=0, seed=42, warm_accesses=1_000)

    def test_import_loads_neither_sqlite3_nor_pickle(self):
        """Warm state lives only in the replay, so importing the TSE package
        (as every replay does) loads no store or serialization module."""
        import os
        import subprocess
        import sys

        import repro.tse

        code = (
            "import sys, repro.tse; "
            "print(sorted({'sqlite3', 'pickle'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(repro.tse.__file__).parents[2])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        assert done.stdout.strip() == "[]"


class TestPackedCMOBDeterminism:
    """Array-backed (byte-packed) CMOB determinism under heavy wraparound."""

    def test_wraparound_heavy_run_matches_one_chunk_run(self):
        """A CMOB far smaller than the trace working set exercises constant
        stale-pointer truncation and ring overwrite; the packed ring must be
        bit-identical across chunk boundaries through all of it."""
        config = TSEConfig(cmob_capacity=97, svb_entries=8, stream_lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        from_chunks = TSESimulator(4, config).run(chunked, warmup_fraction=0.3)
        from_one = TSESimulator(4, config).run(one_chunk_trace("db2"), warmup_fraction=0.3)
        assert from_chunks.as_dict() == from_one.as_dict()

    def test_warm_run_carries_wrapped_packed_state(self):
        """A ramp that wraps the 97-entry rings hands the packed CMOB and
        FIFO state to the window intact: the warm run equals one replay
        with the statistics reset at the ramp's end."""
        from repro.experiments.runner import trace_for

        config = TSEConfig(cmob_capacity=97, svb_entries=8, stream_lookahead=8)
        trace = trace_for("db2", 12_000, 11, 4)
        straight = TSESimulator(4, config)
        expected = straight.run_chunks(
            trace.chunks(), name="db2", warmup_accesses=int(len(trace) * 0.75)
        )
        # Every consumption appends one CMOB entry, so a ramp with more
        # consumptions than the four rings hold has overwritten ring slots.
        assert straight.warmup_stats.total_consumptions > 4 * config.cmob_capacity
        stats = TSESimulator(4, config).run(
            ChunkedTrace.from_payload(trace.to_payload()), warmup_fraction=0.75,
        )
        assert stats.as_dict() == expected.as_dict()
        assert stats.stream_length_hist.buckets() == expected.stream_length_hist.buckets()

    def test_packed_ring_grows_lazily_and_caps(self):
        from repro.coherence.directory import Directory
        from repro.tse.engine import TemporalStreamingSystem

        config = TSEConfig(cmob_capacity=16)
        tse = TemporalStreamingSystem(2, config, Directory(2))
        cmob = tse.nodes[0].cmob
        for address in range(10):
            tse.on_consumption(0, address)
        assert len(cmob._data) == 10 * 8
        for address in range(10, 40):
            tse.on_consumption(0, address)
        assert len(cmob._data) == 16 * 8  # capped at capacity entries
