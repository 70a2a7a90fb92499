"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.coherence.protocol import READ_HIT, CoherenceProtocol
from repro.common.stats import Histogram
from repro.interconnect.torus import TorusTopology

addresses = st.integers(min_value=0, max_value=1 << 20)


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
            block = protocol._blocks.get(address)
            holder = block is not None and node in block.held_version
            if op == "write":
                assert protocol.write_ints(node, address) == holder
            else:
                code = protocol.read_ints(node, address, op == "spin")
                assert (code == READ_HIT) == holder
            for block in protocol._blocks.values():
                assert all(v == block.version for v in block.held_version.values())


class TestCMOBProperties:
    """A node's consumptions, recorded through ``on_consumption``, read back
    from its CMOB exactly as long as they are resident."""

    @given(st.lists(addresses, min_size=1, max_size=300), st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_resident_suffix_is_readable_in_order(
        self, tse_system, cmob_window, appended, capacity
    ):
        tse = tse_system(cmob_capacity=capacity)
        for address in appended:
            tse.on_consumption(0, address)
        start = max(0, len(appended) - capacity)
        resident = cmob_window(tse.nodes[0].cmob, start, len(appended))
        assert resident == appended[start:]

    @given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_stale_offsets_never_return_data(
        self, tse_system, cmob_window, appended, capacity
    ):
        tse = tse_system(cmob_capacity=capacity)
        for address in appended:
            tse.on_consumption(0, address)
        for offset in range(len(appended) - capacity):
            assert cmob_window(tse.nodes[0].cmob, offset, capacity) == []


class TestSVBProperties:
    """Blocks delivered through ``deliver_all`` and consumed through
    ``on_svb_hit``."""

    @given(st.lists(addresses, min_size=1, max_size=200), st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_size_never_exceeds_capacity(self, tse_system, blocks, capacity):
        tse = tse_system(svb_entries=capacity)
        entries = tse.nodes[0].engine.svb._entries
        for block in blocks:
            tse.deliver_all(0, [(0, [block])], 0.0, {})
            assert len(entries) <= capacity
            assert tse._svb_residency == dict.fromkeys(entries, 1)

    @given(st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_consume_removes_exactly_once(self, tse_system, blocks):
        tse = tse_system(svb_entries=1 << 12)
        tse.deliver_all(0, [(0, blocks)], 0.0, {})
        for block in set(blocks):
            assert tse.on_svb_hit(0, block)[0] is not None
            assert tse.on_svb_hit(0, block) == (None, [])


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
        assert sum(hist.buckets().values()) == len(values)
