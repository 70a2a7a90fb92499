"""Unit tests for the torus topology and traffic accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import messages
from repro.coherence.messages import MESSAGE_TYPES, PAYLOAD_BYTES, STREAM_ADDRESS_BYTES
from repro.common.config import InterconnectConfig
from repro.interconnect import TorusTopology, TrafficAccountant
from repro.interconnect.network import count_table


class TestTorusTopology:
    def test_hop_count_zero_for_same_node(self):
        torus = TorusTopology(4, 4)
        assert torus.hop_count(5, 5) == 0

    def test_hop_count_uses_wraparound(self):
        torus = TorusTopology(4, 4)
        # Nodes 0 and 3 are adjacent through the wrap link.
        assert torus.hop_count(0, 3) == 1
        assert torus.hop_count(0, 2) == 2

    def test_hop_count_is_symmetric(self):
        torus = TorusTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                assert torus.hop_count(src, dst) == torus.hop_count(dst, src)

    @pytest.mark.parametrize("width,height", [(4, 4), (2, 4), (3, 5), (1, 6)])
    def test_hop_count_matches_a_breadth_first_search(self, width, height):
        """Shortest paths over the wrap-around grid, found by BFS."""
        torus = TorusTopology(width, height)
        for src in range(torus.num_nodes):
            distance = {src: 0}
            frontier = [src]
            while frontier:
                next_frontier = []
                for node in frontier:
                    x, y = node % width, node // width
                    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                        neighbour = (ny % height) * width + nx % width
                        if neighbour not in distance:
                            distance[neighbour] = distance[node] + 1
                            next_frontier.append(neighbour)
                frontier = next_frontier
            assert [torus.hop_count(src, dst) for dst in range(torus.num_nodes)] == [
                distance[dst] for dst in range(torus.num_nodes)]

    def test_max_hop_count_in_4x4_is_4(self):
        torus = TorusTopology(4, 4)
        assert max(torus.hop_count(s, d) for s in range(16) for d in range(16)) == 4

    def test_every_node_has_four_neighbors(self):
        torus = TorusTopology(4, 4)
        for node in range(16):
            assert sum(torus.hop_count(node, other) == 1 for other in range(16)) == 4

    @pytest.mark.parametrize("width,height,expected", [
        (4, 4, 32 / 15),  # each ring of 4 adds 0+1+2+1 per row/column
        (2, 2, 4 / 3),
        (1, 6, 9 / 5),
        (1, 1, 0.0),      # no pair of distinct nodes
    ])
    def test_average_hop_count_over_distinct_pairs(self, width, height, expected):
        assert TorusTopology(width, height).average_hop_count() == pytest.approx(expected)

    def test_bisection_cut_splits_the_columns_in_half(self):
        torus = TorusTopology(4, 4)
        crossing = {(s, d) for s in range(16) for d in range(16) if torus.crosses_bisection(s, d)}
        assert len(crossing) == 2 * 8 * 8  # ordered pairs with one node in each half
        assert all((d, s) in crossing for s, d in crossing)
        assert not any(s % 4 == d % 4 for s, d in crossing)  # a column stays on one side

    def test_coordinate_round_trip(self):
        torus = TorusTopology(4, 4)
        for node in range(16):
            coord = torus.coordinate_of(node)
            assert coord.y * torus.width + coord.x == node

    def test_bisection_detection(self):
        torus = TorusTopology(4, 4)
        assert torus.crosses_bisection(0, 2)      # x=0 -> x=2 crosses the cut
        assert not torus.crosses_bisection(0, 1)  # both in the left half

    def test_invalid_node_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology(2, 2).coordinate_of(9)


def _reference_snapshot(topology, header_bytes, sent):
    """Per-message reference: sum each message's wire size, one at a time."""
    totals = {False: [0, 0], True: [0, 0]}  # is overhead -> [total, bisection]
    by_type = {}
    for kind, src, dst, carried in sent:
        if src == dst:
            continue
        size = header_bytes + PAYLOAD_BYTES[kind]
        if kind == messages.ADDRESS_STREAM:
            size += STREAM_ADDRESS_BYTES * carried
        msg_type = MESSAGE_TYPES[kind]
        target = totals[msg_type.is_tse_overhead]
        target[0] += size
        if topology.crosses_bisection(src, dst):
            target[1] += size
        if msg_type.is_tse_overhead:
            key = f"overhead.{msg_type.value}_bytes"
            by_type[key] = by_type.get(key, 0.0) + size
    (baseline, baseline_cut), (overhead, overhead_cut) = totals[False], totals[True]
    return {
        "baseline.total_bytes": float(baseline),
        "baseline.bisection_bytes": float(baseline_cut),
        "overhead.total_bytes": float(overhead),
        "overhead.bisection_bytes": float(overhead_cut),
        "overhead.ratio": overhead / baseline if baseline else 0.0,
        **by_type,
    }


@st.composite
def _torus_and_messages(draw):
    width, height = draw(st.sampled_from([(2, 2), (4, 2), (4, 4)]))
    nodes = st.integers(min_value=0, max_value=width * height - 1)
    message = st.tuples(
        st.integers(min_value=0, max_value=len(MESSAGE_TYPES) - 1),
        nodes, nodes, st.integers(min_value=1, max_value=16),
    )
    return width, height, draw(st.lists(message, max_size=60))


class TestTrafficAccountant:
    def test_baseline_vs_overhead_split(self):
        accountant = TrafficAccountant(InterconnectConfig())
        accountant.emit(messages.DATA_REPLY, 0, 2)
        accountant.emit_addresses(0, 2, 8)
        snapshot = accountant.snapshot()
        assert snapshot["baseline.total_bytes"] > 0
        assert snapshot["overhead.total_bytes"] > 0
        assert snapshot["overhead.ratio"] > 0

    def test_local_messages_ignored(self):
        accountant = TrafficAccountant(InterconnectConfig())
        accountant.emit(messages.DATA_REPLY, 1, 1)
        assert accountant.snapshot()["baseline.total_bytes"] == 0

    def test_bisection_bytes_only_for_crossing_routes(self):
        accountant = TrafficAccountant(InterconnectConfig())
        accountant.emit(messages.DATA_REPLY, 0, 1)  # same half
        assert accountant.snapshot()["baseline.bisection_bytes"] == 0
        accountant.emit(messages.DATA_REPLY, 0, 2)  # crosses
        assert accountant.snapshot()["baseline.bisection_bytes"] > 0

    def test_snapshot_matches_hand_computed_byte_table(self):
        # 4x4 torus, 16-byte headers; the bisection splits columns {0, 1}
        # from {2, 3}, so node n sits left of it exactly when n % 4 < 2.
        accountant = TrafficAccountant(InterconnectConfig())
        accountant.emit(messages.DATA_REPLY, 5, 5)           # local: dropped
        accountant.emit(messages.STREAM_REQUEST, 6, 6)       # local: dropped
        accountant.emit_addresses(3, 3, 5)                   # local: dropped
        accountant.emit(messages.READ_REQUEST, 0, 1)         # 16 + 8, same half
        accountant.emit(messages.DATA_REPLY, 0, 2)           # 16 + 72, crosses
        accountant.emit(messages.CMOB_POINTER_UPDATE, 4, 7)  # 16 + 14, crosses
        accountant.emit_addresses(1, 0, 8)                   # 16 + 8 + 6*8, same half
        accountant.emit_addresses(2, 0, 1)                   # 16 + 8 + 6*1, crosses
        assert accountant.snapshot() == {
            "baseline.total_bytes": 24.0 + 88.0,
            "baseline.bisection_bytes": 88.0,
            "overhead.total_bytes": 30.0 + 72.0 + 30.0,
            "overhead.bisection_bytes": 30.0 + 30.0,
            "overhead.ratio": (30 + 72 + 30) / (24 + 88),
            # Only the overhead types that reached another node get a key.
            "overhead.cmob_pointer_update_bytes": 30.0,
            "overhead.address_stream_bytes": 72.0 + 30.0,
        }

    @given(_torus_and_messages(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_folded_snapshot_equals_per_message_sum(self, case, table_nodes):
        # The messages among the first ``table_nodes`` nodes arrive in one
        # count table laid out for that many nodes, as a trace's base-system
        # counts do; add_counts must land each where emit would have.
        width, height, sent = case
        table_nodes = min(table_nodes, width * height)
        config = InterconnectConfig(width=width, height=height)
        accountant = TrafficAccountant(config)
        counts, count = count_table(table_nodes)
        for kind, src, dst, carried in sent:
            if kind == messages.ADDRESS_STREAM:
                accountant.emit_addresses(src, dst, carried)
            elif src < table_nodes and dst < table_nodes:
                count(kind, src, dst)
            else:
                accountant.emit(kind, src, dst)
        accountant.add_counts(counts, table_nodes)
        expected = _reference_snapshot(
            TorusTopology(width, height), config.header_bytes, sent
        )
        assert accountant.snapshot() == expected
