"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.coherence.protocol import READ_HIT, CoherenceProtocol
from repro.common.stats import Histogram
from repro.common.types import block_of, block_to_address
from repro.interconnect.torus import TorusTopology
from repro.tse.cmob import CMOB
from repro.tse.svb import StreamedValueBuffer

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestBlockMappingProperties:
    @given(addresses, st.sampled_from([32, 64, 128, 256]))
    def test_block_round_trip_is_idempotent(self, address, block_size):
        block = block_of(address, block_size)
        assert block_of(block_to_address(block, block_size), block_size) == block

    @given(addresses, addresses, st.sampled_from([64, 128]))
    def test_same_block_iff_same_aligned_base(self, a, b, block_size):
        same_block = block_of(a, block_size) == block_of(b, block_size)
        same_base = (a // block_size) == (b // block_size)
        assert same_block == same_base


class TestCoherenceProperties:
    """Infinite caches: every copy is current, so no read is a capacity miss."""

    steps = st.tuples(
        st.sampled_from(("read", "spin", "write")),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7),
    )

    @given(st.integers(min_value=2, max_value=4), st.lists(steps, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_copies_are_current_and_hits_are_holders(self, num_nodes, trace):
        protocol = CoherenceProtocol(num_nodes)
        for op, node, address in trace:
            node %= num_nodes
            holder = node in protocol.holders_of(address)
            if op == "write":
                assert protocol.write_ints(node, address) == holder
            else:
                code = protocol.read_ints(node, address, op == "spin")
                assert (code == READ_HIT) == holder
            for block in protocol._blocks.values():
                assert all(v == block.version for v in block.held_version.values())


class TestCMOBProperties:
    @given(st.lists(addresses, min_size=1, max_size=300), st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_resident_suffix_is_readable_in_order(self, appended, capacity):
        cmob = CMOB(capacity=capacity)
        for address in appended:
            cmob.append(address)
        start = cmob.oldest_valid_offset
        resident = list(cmob.read_stream(start, len(appended)))
        assert resident == appended[start:]

    @given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_stale_offsets_never_return_data(self, appended, capacity):
        cmob = CMOB(capacity=capacity)
        for address in appended:
            cmob.append(address)
        for offset in range(cmob.oldest_valid_offset):
            assert cmob.read(offset) is None


class TestSVBProperties:
    @given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_size_never_exceeds_capacity(self, blocks, capacity):
        svb = StreamedValueBuffer(capacity_entries=capacity)
        for block in blocks:
            svb.insert(block, queue_id=0)
            assert len(svb) <= capacity

    @given(st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_consume_removes_exactly_once(self, blocks):
        svb = StreamedValueBuffer(capacity_entries=1 << 12)
        for block in blocks:
            svb.insert(block, queue_id=0)
        for block in set(blocks):
            assert svb.consume(block) is not None
            assert svb.consume(block) is None


class TestTorusProperties:
    torus_dims = st.tuples(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))

    @given(torus_dims, st.data())
    @settings(max_examples=60, deadline=None)
    def test_hop_count_symmetric_and_bounded(self, dims, data):
        width, height = dims
        torus = TorusTopology(width, height)
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        hops = torus.hop_count(src, dst)
        assert hops == torus.hop_count(dst, src)
        assert 0 <= hops <= width // 2 + height // 2

    @given(torus_dims, st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_length_matches_hop_count(self, dims, data):
        width, height = dims
        torus = TorusTopology(width, height)
        src = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=torus.num_nodes - 1))
        assert len(torus.route(src, dst)) == torus.hop_count(src, dst) + 1


class TestHistogramProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_complete(self, values):
        hist = Histogram("h")
        for value in values:
            hist.record(value)
        points = sorted(set(values))
        fractions = [hist.cumulative_fraction(p) for p in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert hist.count == len(values)
