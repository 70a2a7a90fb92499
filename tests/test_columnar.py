"""Columnar trace backbone regressions: packed chunks, views, snapshots.

Locks in the contracts the columnar replay rests on:

1. chunked emission <-> legacy ``MemoryAccess`` view bit-identity for every
   registered workload;
2. the chunked replay fast path produces results bit-identical to the
   object path;
3. a trace's coherence classification does not depend on TSE: the live
   protocol of a traffic-accounted replay follows the trace's code column
   access for access, on both planes;
4. warm-state snapshot/restore determinism: same seed => same post-restore
   results, identical to replaying the warm ramp.
"""

import functools
import importlib.util
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.protocol import WRITE, CoherenceProtocol, coherence_codes, trace_codes
from repro.common.chunk import ChunkedTrace, TraceChunk, stream_chunk_size
from repro.common.config import DEFAULT_STREAM_CHUNK, TSEConfig
from repro.common.types import (
    ACCESS_TYPE_CODE,
    TYPE_ATOMIC,
    TYPE_READ,
    TYPE_SPIN_READ,
    TYPE_WRITE,
)
from repro.tse.simulator import TSESimulator
from repro.tse.snapshot import (
    capture,
    clear_snapshots,
    restore,
    snapshot_info,
    warm_tse_run,
)
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


def columns_of(trace: ChunkedTrace):
    """``(chunk, code column)`` pairs, the input of ``_replay_chunk``."""
    return list(zip(trace.chunks(), trace_codes(trace)))


def assert_live_protocol_follows_the_column(trace, config, mode):
    """A traffic-accounted replay steps a live protocol.  At every read it
    must return the code the trace's column holds at that position, and it
    must end in the state a plain classification pass ends in."""
    simulator = TSESimulator(trace.num_nodes, config, account_traffic=True, mode=mode)
    protocol = simulator.protocol
    live_read = protocol.read_ints
    returned = []

    def read_ints(node, address, is_spin):
        code = live_read(node, address, is_spin)
        returned.append(code)
        return code

    protocol.read_ints = read_ints
    simulator.run(trace, warmup_fraction=0.3)
    column = b"".join(trace_codes(trace))
    assert returned == [code for code in column if code != WRITE]
    classifier = CoherenceProtocol(trace.num_nodes)
    assert b"".join(coherence_codes(classifier, trace.chunks())) == column
    assert protocol._blocks == classifier._blocks


class TestChunkedEmission:
    @pytest.mark.parametrize("name", available_workloads())
    def test_chunked_equals_object_view_per_workload(self, name):
        """stream_chunks() packs exactly the accesses stream() yields."""
        objects = list(get_workload(name, SMALL).stream())
        chunked = get_workload(name, SMALL).generate_chunked(chunk_size=512)
        assert chunked.accesses == objects
        assert len(chunked) == len(objects)

    def test_chunk_sizes_are_fixed(self):
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        chunks = chunked.chunks()
        assert all(len(chunk) == 512 for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= 512

    def test_chunk_columns_encode_types(self):
        chunked = get_workload("apache", SMALL).generate_chunked(chunk_size=512)
        for chunk in chunked.chunks():
            for access, code in zip(chunk.iter_accesses(), chunk.types):
                assert ACCESS_TYPE_CODE[access.access_type] == code

    def test_payload_round_trip(self):
        chunked = get_workload("em3d", SMALL).generate_chunked(chunk_size=512)
        rebuilt = ChunkedTrace.from_payload(chunked.to_payload())
        assert rebuilt.accesses == chunked.accesses
        assert rebuilt.num_nodes == chunked.num_nodes
        assert rebuilt.name == chunked.name

    def test_from_accesses_round_trip(self):
        objects = list(get_workload("ocean", SMALL).stream())
        chunk = TraceChunk.from_accesses(objects)
        assert list(chunk.iter_accesses()) == objects

    def test_chunk_node_validation(self):
        trace = ChunkedTrace(num_nodes=2)
        chunk = TraceChunk()
        chunk.extend_packed([(5, 10, 0, 0, 1, 0)])
        with pytest.raises(ValueError):
            trace.append_chunk(chunk)

    def test_stream_chunk_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "1234")
        assert stream_chunk_size() == 1234
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "not-a-number")
        assert stream_chunk_size() == DEFAULT_STREAM_CHUNK
        monkeypatch.delenv("REPRO_STREAM_CHUNK")
        assert stream_chunk_size() == DEFAULT_STREAM_CHUNK


class TestChunkedReplay:
    def test_chunked_run_equals_object_run(self):
        """TSESimulator.run on ChunkedTrace == run on the AccessTrace view."""
        config = TSEConfig.paper_default(lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        object_trace = get_workload("db2", SMALL).generate()
        from_chunks = TSESimulator(4, config).run(chunked, warmup_fraction=0.3)
        from_objects = TSESimulator(4, config).run(object_trace, warmup_fraction=0.3)
        assert from_chunks.as_dict() == from_objects.as_dict()
        assert (
            from_chunks.stream_length_hist.buckets()
            == from_objects.stream_length_hist.buckets()
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


class TestCodeColumn:
    @pytest.mark.parametrize("mode", ("exact", "fast"))
    @pytest.mark.parametrize("label, config", reference_battery.CONFIGS,
                             ids=[label for label, _ in reference_battery.CONFIGS])
    @pytest.mark.parametrize("name", available_workloads())
    def test_traffic_replay_protocol_follows_the_column(self, name, label, config, mode):
        assert_live_protocol_follows_the_column(small_trace(name), config, mode)

    @given(
        case=shared_sequences(),
        chunk_size=st.integers(min_value=16, max_value=128),
        cmob_capacity=st.integers(min_value=1, max_value=24),
        svb_entries=st.integers(min_value=1, max_value=4),
        lookahead=st.integers(min_value=1, max_value=8),
        compared_streams=st.integers(min_value=1, max_value=2),
        mode=st.sampled_from(("exact", "fast")),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sharing_follows_the_column(
        self, case, chunk_size, cmob_capacity, svb_entries, lookahead,
        compared_streams, mode,
    ):
        """CMOBs that wrap, 1-4-entry SVBs, streams that form and hit."""
        num_nodes, steps = case
        records = [(node, block, type_code, 0, tick, 0)
                   for tick, (node, block, type_code) in enumerate(steps)]
        trace = ChunkedTrace(num_nodes=num_nodes, name="random")
        for start in range(0, len(records), chunk_size):
            chunk = TraceChunk()
            chunk.extend_packed(records[start:start + chunk_size])
            trace.append_chunk(chunk)
        config = TSEConfig(
            cmob_capacity=cmob_capacity, svb_entries=svb_entries,
            stream_lookahead=lookahead, compared_streams=compared_streams,
            cmob_pointers_per_block=2,
        )
        assert_live_protocol_follows_the_column(trace, config, mode)

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


class TestWarmSnapshots:
    WARM = 3_000
    MEASURE = 3_000

    def test_snapshot_restore_matches_straight_replay(self):
        """Restore-then-measure == warm-then-measure == plain warmup run."""
        from repro.experiments.runner import trace_for

        clear_snapshots()
        config = TSEConfig.paper_default(lookahead=18)
        trace = trace_for("em3d", self.WARM + self.MEASURE, 42)
        straight = TSESimulator(16, config).run_chunks(
            trace.chunks(), name="em3d", warmup_accesses=self.WARM
        )
        cold = warm_tse_run(
            "em3d", config, warm_accesses=self.WARM,
            measure_accesses=self.MEASURE, use_snapshot=False,
        )
        miss = warm_tse_run(
            "em3d", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
        )
        hit = warm_tse_run(
            "em3d", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
        )
        for stats in (cold, miss, hit):
            assert stats.as_dict() == straight.as_dict()
            assert (
                stats.stream_length_hist.buckets()
                == straight.stream_length_hist.buckets()
            )
        info = snapshot_info()
        assert info["hits"] >= 1 and info["misses"] >= 1

    def test_same_seed_same_post_restore_trace(self):
        clear_snapshots()
        config = TSEConfig.paper_default(lookahead=8)
        first = warm_tse_run(
            "db2", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
        )
        second = warm_tse_run(
            "db2", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
        )
        assert first.as_dict() == second.as_dict()

    def test_capture_restore_is_independent(self):
        """Mutating a restored simulator leaves the snapshot's source alone."""
        config = TSEConfig.paper_default(lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        columns = columns_of(chunked)
        simulator = TSESimulator(4, config)
        simulator._replay_chunk(*columns[0])
        payload = capture(simulator)
        twin = restore(payload)
        for chunk, codes in columns[1:]:
            twin._replay_chunk(chunk, codes)
        assert simulator.stats.accesses == len(columns[0][0])
        assert twin.stats.accesses == len(chunked)

    def test_traffic_simulator_cannot_snapshot(self):
        simulator = TSESimulator(4, TSEConfig.paper_default(), account_traffic=True)
        with pytest.raises(ValueError):
            capture(simulator)


class TestSnapshotFormatVersioning:
    """Snapshots carry a format version: stale payloads fall back to the
    cold ramp instead of unpickling garbage (PR 5 acceptance)."""

    WARM = 2_000
    MEASURE = 2_000

    def test_capture_embeds_format_and_restore_validates(self):
        import pickle

        from repro.tse.snapshot import SNAPSHOT_FORMAT, SnapshotFormatError

        simulator = TSESimulator(4, TSEConfig.paper_default(lookahead=8))
        payload = capture(simulator)
        version, _ = pickle.loads(payload)
        assert version == SNAPSHOT_FORMAT
        assert isinstance(restore(payload), TSESimulator)
        # A pre-versioning payload (raw pickled simulator) is rejected.
        legacy = pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(SnapshotFormatError):
            restore(legacy)
        with pytest.raises(SnapshotFormatError):
            restore(b"not a pickle at all")

    def test_snapshot_key_is_format_scoped(self):
        from repro.tse.snapshot import SNAPSHOT_FORMAT, snapshot_key

        key = snapshot_key("db2", 100, 200, 42, 16, TSEConfig.paper_default())
        assert key.startswith(f"({SNAPSHOT_FORMAT},")

    def test_bad_payload_under_current_key_falls_back_to_cold_ramp(self):
        """Even a corrupt payload stored under the *current* key must not
        crash or skew results: warm_tse_run recomputes the ramp and heals
        the store entry."""
        import pickle

        from repro.tse import snapshot as snap

        clear_snapshots()
        config = TSEConfig.paper_default(lookahead=8)
        reference = warm_tse_run(
            "db2", config, warm_accesses=self.WARM,
            measure_accesses=self.MEASURE, use_snapshot=False,
        )
        from repro.experiments.runner import trace_for

        trace = trace_for("db2", self.WARM + self.MEASURE, 42, 16)
        key = snap.snapshot_key(
            "db2", self.WARM, len(trace), 42, 16, config
        )
        legacy_sim = TSESimulator(16, config)
        snap._SNAPSHOTS[key] = pickle.dumps(legacy_sim)  # unversioned payload
        healed = warm_tse_run(
            "db2", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
        )
        assert healed.as_dict() == reference.as_dict()
        # The bad payload was replaced by a valid, versioned one.
        assert isinstance(restore(snap._SNAPSHOTS[key]), TSESimulator)
        clear_snapshots()

    def test_format4_payload_in_persistent_store_falls_back_to_cold_ramp(self, tmp_path):
        """A format-4 payload — a bare simulator that still carried the
        protocol's block state — is never restored: under its own key it
        never matches, and under the current key it is rejected, the ramp is
        recomputed bit for bit, and the entry is replaced."""
        import pickle

        from repro.experiments.runner import trace_for
        from repro.tse import snapshot as snap
        from repro.tse.snapshot import SNAPSHOT_FORMAT, PersistentSnapshotStore

        config = TSEConfig.paper_default(lookahead=8)
        reference = warm_tse_run(
            "db2", config, warm_accesses=self.WARM,
            measure_accesses=self.MEASURE, use_snapshot=False,
        )
        trace = trace_for("db2", self.WARM + self.MEASURE, 42, 16)
        warm, _ = snap._split_columns(columns_of(trace), self.WARM)
        legacy = TSESimulator(16, config)
        for chunk, codes in warm:
            legacy._replay_chunk(chunk, codes)
        list(coherence_codes(legacy.protocol, (chunk for chunk, _ in warm)))
        payload = pickle.dumps((4, legacy), protocol=pickle.HIGHEST_PROTOCOL)

        key = snap.snapshot_key("db2", self.WARM, len(trace), 42, 16, config)
        store = PersistentSnapshotStore(tmp_path / "snapshots.sqlite")
        store[key.replace(f"({SNAPSHOT_FORMAT},", "(4,", 1)] = payload
        store[key] = payload
        healed = warm_tse_run(
            "db2", config, warm_accesses=self.WARM, measure_accesses=self.MEASURE,
            snapshot_store=store,
        )
        assert healed.as_dict() == reference.as_dict()
        assert healed.stream_length_hist.buckets() == reference.stream_length_hist.buckets()
        assert pickle.loads(store[key])[0] == SNAPSHOT_FORMAT
        assert not restore(store[key]).protocol._blocks


class TestPackedCMOBDeterminism:
    """Array-backed (byte-packed) CMOB determinism under heavy wraparound."""

    def test_wraparound_heavy_run_matches_object_path(self):
        """A CMOB far smaller than the trace working set exercises constant
        stale-pointer truncation and ring overwrite; the packed ring must be
        bit-identical to the object replay path through all of it."""
        config = TSEConfig(cmob_capacity=97, svb_entries=8, stream_lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        object_trace = get_workload("db2", SMALL).generate()
        fast = TSESimulator(4, config).run(chunked, warmup_fraction=0.3)
        slow = TSESimulator(4, config).run(object_trace, warmup_fraction=0.3)
        assert fast.as_dict() == slow.as_dict()

    def test_packed_ring_grows_lazily_and_caps(self):
        from repro.tse.cmob import CMOB

        cmob = CMOB(capacity=16)
        for address in range(10):
            cmob.append(address)
        assert len(cmob._data) == 10 * 8
        for address in range(10, 40):
            cmob.append(address)
        assert len(cmob._data) == 16 * 8  # capped at capacity entries

    def test_snapshot_round_trips_packed_state(self):
        """Capture/restore across the byte-packed CMOB + FIFO state is
        deterministic: the restored twin replays to identical results."""
        config = TSEConfig(cmob_capacity=97, svb_entries=8, stream_lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        columns = columns_of(chunked)
        reference = TSESimulator(4, config)
        twin_source = TSESimulator(4, config)
        for chunk, codes in columns[:2]:
            reference._replay_chunk(chunk, codes)
            twin_source._replay_chunk(chunk, codes)
        twin = restore(capture(twin_source))
        for chunk, codes in columns[2:]:
            reference._replay_chunk(chunk, codes)
            twin._replay_chunk(chunk, codes)
        assert reference.finalize().as_dict() == twin.finalize().as_dict()


class TestParallelPreload:
    def test_preloaded_payload_feeds_trace_for(self):
        from repro.experiments import runner

        trace = runner.trace_for("db2", 4_000, 7, 4)
        payload = trace.to_payload()
        runner.trace_for.cache_clear()
        runner._seed_preloaded_traces({("db2", 4_000, 7, 4): payload})
        rebuilt = runner.trace_for("db2", 4_000, 7, 4)
        assert rebuilt.accesses == trace.accesses
        runner.trace_for.cache_clear()
