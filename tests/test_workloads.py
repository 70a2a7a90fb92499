"""Workload generator tests: determinism, structure, and sharing behaviour."""

import hashlib
import json

import pytest

from repro.coherence.protocol import trace_consumptions
from repro.common.types import TYPE_ATOMIC, TYPE_READ, TYPE_SPIN_READ
from repro.workloads import (
    ALL_WORKLOADS,
    COMMERCIAL_WORKLOADS,
    SCIENTIFIC_WORKLOADS,
    available_workloads,
    get_workload,
)
from repro.workloads.base import AddressSpace, WorkloadParams, interleave


def records(trace):
    """The trace's ``(node, block, type_code, pc, timestamp, dep)`` rows."""
    return [row for chunk in trace.chunks() for row in zip(*chunk.to_payload())]


class TestRegistry:
    def test_all_seven_paper_workloads_registered(self):
        names = available_workloads()
        for name in ("em3d", "moldyn", "ocean", "apache", "db2", "oracle", "zeus"):
            assert name in names

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("notarealworkload")

    def test_categories(self):
        for name in SCIENTIFIC_WORKLOADS:
            assert get_workload(name, WorkloadParams(num_nodes=4, target_accesses=10)).category == "scientific"
        for name in COMMERCIAL_WORKLOADS:
            assert get_workload(name, WorkloadParams(num_nodes=4, target_accesses=10)).category == "commercial"


class TestAddressSpace:
    def test_regions_are_disjoint(self):
        space = AddressSpace()
        a = space.allocate("a", 100)
        b = space.allocate("b", 50)
        assert set(a).isdisjoint(set(b))
        # Regions are packed from block 1 up: 150 blocks in all.
        assert (a.start, a.stop, b.start, b.stop) == (1, 101, 101, 151)

    def test_duplicate_region_rejected(self):
        space = AddressSpace()
        space.allocate("a", 10)
        with pytest.raises(ValueError):
            space.allocate("a", 10)

    def test_zero_size_region_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().allocate("a", 0)


class TestInterleave:
    def test_nodes_take_turns_a_quantum_at_a_time(self):
        per_node = [["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]]
        assert list(interleave(per_node, 2)) == [
            "a1", "a2", "b1", "b2", "a3", "a4", "b3", "b4"]

    def test_drained_nodes_drop_out_of_the_rotation(self):
        assert list(interleave([[1, 2, 3], [4], []], 1)) == [1, 4, 2, 3]

    def test_quantum_below_one_interleaves_singly(self):
        per_node = [[1, 2], [3, 4]]
        assert list(interleave(per_node, 0)) == list(interleave(per_node, 1)) == [1, 3, 2, 4]


class TestWorkloadParams:
    @pytest.mark.parametrize("value,scale,minimum,expected", [
        (100, 1.0, 1, 100),
        (100, 0.25, 1, 25),
        (100, 0.01, 8, 8),  # the minimum bounds a shrunken size
        (10, 0.04, 1, 1),   # rounds to zero, still at least one
    ])
    def test_scaled(self, value, scale, minimum, expected):
        assert WorkloadParams(scale=scale).scaled(value, minimum=minimum) == expected


#: Each registered workload's trace at 16 nodes, seed 42 and a 1,000-access
#: target: (digest of its columns, accesses).  Any drift in generation, the
#: shared Zipf table included, fails here before it reaches a figure.
TRACE_PINS = {
    "em3d": ("180c420702c83846", 13312),
    "moldyn": ("780af3e8a0c8ca37", 6432),
    "ocean": ("82af03837f8eb9e2", 10240),
    "sparse": ("4ea400875dba6d53", 13824),
    "apache": ("d2ee66c3f40e8ae0", 1046),
    "db2": ("b7fb02648bac38ef", 1018),
    "oracle": ("4121c49c05baf386", 1023),
    "zeus": ("54f3ab1cdd774446", 1000),
    "jbb": ("733a316c212e96a3", 1015),
}


def test_every_registered_workload_is_pinned():
    assert sorted(TRACE_PINS) == sorted(available_workloads())


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_trace_payload_is_pinned(name):
    params = WorkloadParams(num_nodes=16, seed=42, target_accesses=1000)
    trace = get_workload(name, params).generate_chunked()
    columns = [list(column) for column in zip(*records(trace))]
    digest = hashlib.sha256(json.dumps(columns).encode()).hexdigest()[:16]
    assert (digest, len(trace)) == TRACE_PINS[name]


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestEveryWorkload:
    def test_trace_reaches_target_and_stays_in_bounds(self, name, small_traces):
        trace = small_traces[name]
        assert len(trace) >= 8_000
        assert all(0 <= row[0] < trace.num_nodes for row in records(trace)[:2000])

    def test_deterministic_for_same_seed(self, name):
        params = WorkloadParams(num_nodes=4, seed=3, target_accesses=3000)
        first = get_workload(name, params).generate_chunked()
        second = get_workload(name, params).generate_chunked()
        assert [row[:3] for row in records(first)] == [row[:3] for row in records(second)]

    def test_different_seeds_differ(self, name):
        a = get_workload(name, WorkloadParams(num_nodes=4, seed=1, target_accesses=3000))
        b = get_workload(name, WorkloadParams(num_nodes=4, seed=2, target_accesses=3000))
        assert [row[:2] for row in records(a.generate_chunked())] != [
            row[:2] for row in records(b.generate_chunked())
        ]

    def test_timestamps_monotonic_per_node(self, name, small_traces):
        trace = small_traces[name]
        last = {}
        for node, _, _, _, timestamp, _ in records(trace):
            assert timestamp >= last.get(node, 0)
            last[node] = timestamp

    def test_produces_consumptions(self, name, small_traces):
        consumptions = trace_consumptions(small_traces[name])
        assert sum(len(c) for c in consumptions) > 50

    def test_every_node_participates(self, name, small_traces):
        trace = small_traces[name]
        nodes_seen = {row[0] for row in records(trace)}
        assert nodes_seen == set(range(trace.num_nodes))


class TestSmallMachines:
    @pytest.mark.parametrize("name", ["em3d", "sparse"])
    @pytest.mark.parametrize("num_nodes", [2, 3])
    def test_partitioned_sweeps_share_on_small_node_counts(self, name, num_nodes):
        """Reader offsets that alias the owner fall back to a real neighbour,
        so the scientific workloads still produce coherent sharing on 2-3
        node machines instead of degenerating to private traffic."""
        params = WorkloadParams(
            num_nodes=num_nodes, seed=3, target_accesses=4_000, scale=0.25
        )
        consumptions = trace_consumptions(get_workload(name, params).generate_chunked())
        assert sum(len(c) for c in consumptions) > 0


READ_TYPES = (TYPE_READ, TYPE_SPIN_READ)


class TestSharingCharacter:
    def test_scientific_reads_not_dependent(self, small_traces):
        trace = small_traces["em3d"]
        assert not any(row[5] for row in records(trace)[:2000])

    def test_commercial_has_dependent_chains(self, small_traces):
        trace = small_traces["db2"]
        assert any(row[5] for row in records(trace) if row[2] in READ_TYPES)

    def test_commercial_has_spin_and_atomic_accesses(self, small_traces):
        trace = small_traces["oracle"]
        kinds = {row[2] for row in records(trace)}
        assert TYPE_ATOMIC in kinds

    def test_ocean_boundary_reads_are_bursty(self, small_traces):
        """Consecutive boundary reads carry small instruction gaps (bursts)."""
        trace = small_traces["ocean"]
        reads = [row[4] for row in records(trace) if row[0] == 0 and row[2] in READ_TYPES]
        gaps = [b - a for a, b in zip(reads, reads[1:])]
        assert min(gaps) <= 30

    def test_oltp_transactions_are_contiguous_per_node(self, small_traces):
        """OLTP dispatches whole transactions to one node at a time."""
        nodes = [row[0] for row in records(small_traces["db2"])]
        switches = sum(1 for a, b in zip(nodes, nodes[1:]) if a != b)
        assert switches < len(nodes) / 5
