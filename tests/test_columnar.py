"""Columnar trace backbone regressions: packed chunks, views, snapshots.

Locks in the three contracts the columnar rewrite (PR 3) rests on:

1. chunked emission <-> legacy ``MemoryAccess`` view bit-identity for every
   registered workload;
2. the chunked replay fast path produces results bit-identical to the
   object path;
3. warm-state snapshot/restore determinism: same seed => same post-restore
   results, identical to replaying the warm ramp.
"""

import pytest

from repro.common.chunk import ChunkedTrace, TraceChunk, stream_chunk_size
from repro.common.config import DEFAULT_STREAM_CHUNK, TSEConfig
from repro.common.types import ACCESS_TYPE_CODE
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
    def test_fast_path_protocol_counters_match_object_path(self):
        """Traffic accounting leaves the protocol's classification counters
        exactly as a run without it."""
        config = TSEConfig.paper_default(lookahead=8)
        chunked = get_workload("db2", SMALL).generate_chunked(chunk_size=512)
        fast = TSESimulator(4, config)
        fast.run(chunked, warmup_fraction=0.3)
        slow = TSESimulator(4, config, account_traffic=True)
        slow.run(chunked, warmup_fraction=0.3)
        assert fast.protocol.stats.snapshot() == slow.protocol.stats.snapshot()

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
        chunks = chunked.chunks()
        simulator = TSESimulator(4, config)
        simulator._replay_chunk(chunks[0])
        payload = capture(simulator)
        twin = restore(payload)
        for chunk in chunks[1:]:
            twin._replay_chunk(chunk)
        assert simulator.stats.accesses == len(chunks[0])
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
        chunks = chunked.chunks()
        reference = TSESimulator(4, config)
        twin_source = TSESimulator(4, config)
        for chunk in chunks[:2]:
            reference._replay_chunk(chunk)
            twin_source._replay_chunk(chunk)
        twin = restore(capture(twin_source))
        for chunk in chunks[2:]:
            reference._replay_chunk(chunk)
            twin._replay_chunk(chunk)
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
