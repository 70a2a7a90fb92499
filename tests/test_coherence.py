"""Unit tests for the directory coherence protocol and miss classification."""

import pytest

from repro.coherence import (
    CoherenceProtocol,
    Directory,
    MessageType,
    messages,
    transaction_messages,
)
from repro.coherence.messages import MESSAGE_TYPES, PAYLOAD_BYTES
from repro.coherence.protocol import (
    READ_COHERENT,
    READ_COLD,
    READ_HIT,
    READ_SPIN_COHERENT,
    WRITE,
    trace_consumptions,
)
from repro.common.config import InterconnectConfig
from repro.common.types import TYPE_READ, TYPE_SPIN_READ, TYPE_WRITE
from repro.interconnect import TrafficAccountant


def read(node, address, spin=False):
    return (node, address, TYPE_SPIN_READ if spin else TYPE_READ)


def write(node, address):
    return (node, address, TYPE_WRITE)


def step(protocol, access):
    """Apply one ``(node, address, type_code)`` access; return its code."""
    node, address, type_code = access
    if type_code == TYPE_WRITE:
        protocol.write_ints(node, address)
        return WRITE
    return protocol.read_ints(node, address, type_code == TYPE_SPIN_READ)


class TestDirectory:
    def test_home_node_interleaving(self):
        directory = Directory(num_nodes=4)
        assert directory.home_of(0) == 0
        assert directory.home_of(5) == 1
        assert directory.home_of(7) == 3


class TestMissClassification:
    def test_first_read_of_unwritten_block_is_cold(self):
        protocol = CoherenceProtocol(num_nodes=2)
        assert step(protocol, read(0, 10)) == READ_COLD

    def test_reread_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        step(protocol, read(0, 10))
        assert step(protocol, read(0, 10)) == READ_HIT

    def test_read_after_remote_write_is_consumption(self):
        protocol = CoherenceProtocol(num_nodes=2)
        step(protocol, write(1, 10))
        assert step(protocol, read(0, 10)) == READ_COHERENT
        assert protocol._blocks[10].last_writer == 1  # the producer

    def test_read_after_own_write_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        step(protocol, write(0, 10))
        assert step(protocol, read(0, 10)) == READ_HIT

    def test_spin_read_excluded_from_consumptions(self):
        protocol = CoherenceProtocol(num_nodes=2)
        step(protocol, write(1, 10))
        assert step(protocol, read(0, 10, spin=True)) == READ_SPIN_COHERENT

    def test_write_invalidates_remote_copies(self):
        protocol = CoherenceProtocol(num_nodes=2)
        step(protocol, write(1, 10))
        step(protocol, read(0, 10))          # node 0 now shares the block
        step(protocol, write(1, 10))         # node 1 writes again
        assert step(protocol, read(0, 10)) == READ_COHERENT

    def test_migratory_pattern_produces_consumption_chain(self):
        protocol = CoherenceProtocol(num_nodes=3)
        step(protocol, write(0, 42))
        for reader, writer in ((1, 1), (2, 2), (0, 0)):
            assert step(protocol, read(reader, 42)) == READ_COHERENT
            step(protocol, write(writer, 42))

    def test_holders_tracking(self):
        protocol = CoherenceProtocol(num_nodes=3)
        step(protocol, write(0, 7))
        step(protocol, read(1, 7))
        assert set(protocol._blocks[7].held_version) == {0, 1}

    def test_version_increments_per_write(self):
        protocol = CoherenceProtocol(num_nodes=2)
        for expected in range(1, 4):
            step(protocol, write(0, 3))
            assert protocol._blocks[3].version == expected


#: Transaction -> its exact baseline message list, on 4 nodes; block 10's
#: home is node 2.  Each case replays its setup accesses, then derives the
#: messages of its last access.
MESSAGE_TABLE = {
    "read_hit": ([read(0, 10), read(0, 10)], []),
    "cold_read": ([read(0, 10)], [
        (MessageType.READ_REQUEST, 0, 2),
        (MessageType.DATA_REPLY, 2, 0),
    ]),
    "coherent_read_three_hop": ([write(1, 10), read(0, 10)], [
        (MessageType.READ_REQUEST, 0, 2),
        (MessageType.FORWARD_REQUEST, 2, 1),
        (MessageType.DATA_REPLY_COHERENT, 1, 0),
    ]),
    "coherent_read_producer_is_home": ([write(2, 10), read(0, 10)], [
        (MessageType.READ_REQUEST, 0, 2),
        (MessageType.DATA_REPLY_COHERENT, 2, 0),
    ]),
    "spin_coherent_miss": ([write(1, 10), read(0, 10, spin=True)], [
        (MessageType.READ_REQUEST, 0, 2),
        (MessageType.FORWARD_REQUEST, 2, 1),
        (MessageType.DATA_REPLY_COHERENT, 1, 0),
    ]),
    "write_miss_unread_block": ([write(0, 10)], [
        (MessageType.READ_EXCLUSIVE_REQUEST, 0, 2),
        (MessageType.DATA_REPLY, 2, 0),
    ]),
    "write_miss_invalidates_sharers": ([write(1, 10), read(3, 10), write(0, 10)], [
        (MessageType.READ_EXCLUSIVE_REQUEST, 0, 2),
        (MessageType.INVALIDATE, 2, 1),
        (MessageType.INVALIDATE_ACK, 1, 0),
        (MessageType.INVALIDATE, 2, 3),
        (MessageType.INVALIDATE_ACK, 3, 0),
        (MessageType.DATA_REPLY, 2, 0),
    ]),
    # Sharers 2 (the home) and 3 lose their copies; the home needs no
    # invalidate pair.
    "sharer_upgrade_skips_home": ([read(0, 10), read(2, 10), read(3, 10), write(0, 10)], [
        (MessageType.UPGRADE_REQUEST, 0, 2),
        (MessageType.INVALIDATE, 2, 3),
        (MessageType.INVALIDATE_ACK, 3, 0),
    ]),
    "private_rewrite": ([write(0, 10), write(0, 10)], []),
}


class TestMessagesAndExtraction:
    @pytest.mark.parametrize("case", sorted(MESSAGE_TABLE))
    def test_transaction_messages(self, case):
        accesses, expected = MESSAGE_TABLE[case]
        protocol = CoherenceProtocol(num_nodes=4)
        for access in accesses[:-1]:
            step(protocol, access)
        node, address, type_code = accesses[-1]
        sent = []

        def emit(kind, src, dst):
            sent.append((MESSAGE_TYPES[kind], src, dst))

        if type_code == TYPE_WRITE:
            transaction_messages(protocol, node, address, emit)
            protocol.write_ints(node, address)
        else:
            code = protocol.read_ints(node, address, type_code == TYPE_SPIN_READ)
            transaction_messages(protocol, node, address, emit, code)
        assert sent == expected

    def test_kinds_index_message_types(self):
        for kind, msg_type in enumerate(MESSAGE_TYPES):
            assert getattr(messages, msg_type.name) == kind

    def test_message_sizes_include_data_payload(self):
        control = PAYLOAD_BYTES[messages.READ_REQUEST]
        data = PAYLOAD_BYTES[messages.DATA_REPLY]
        assert data > control
        assert data >= 64

    def test_address_stream_size_scales_with_entries(self):
        def address_stream_bytes(count):
            accountant = TrafficAccountant(InterconnectConfig())
            accountant.emit_addresses(0, 1, count)
            return accountant.snapshot()["overhead.address_stream_bytes"]

        assert address_stream_bytes(32) - address_stream_bytes(4) == 28 * 6

    def test_tse_overhead_flag(self):
        assert MessageType.ADDRESS_STREAM.is_tse_overhead
        assert not MessageType.READ_REQUEST.is_tse_overhead

    def test_trace_consumptions_orders_and_indexes(self, column_trace):
        accesses = [write(1, 10), write(1, 11), read(0, 10), read(0, 11)]
        trace = column_trace([(n, a, t, 0, 0, 0) for n, a, t in accesses], 2)
        per_node = trace_consumptions(trace)
        assert [c.address for c in per_node[0]] == [10, 11]
        assert [c.index for c in per_node[0]] == [0, 1]
        assert [c.producer for c in per_node[0]] == [1, 1]
        assert per_node[1] == []
