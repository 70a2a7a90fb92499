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
from repro.coherence.protocol import extract_consumptions
from repro.common.config import InterconnectConfig
from repro.common.types import AccessType, MemoryAccess, MissClass
from repro.interconnect import TrafficAccountant


def read(node, address, spin=False):
    kind = AccessType.SPIN_READ if spin else AccessType.READ
    return MemoryAccess(node=node, address=address, access_type=kind)


def write(node, address):
    return MemoryAccess(node=node, address=address, access_type=AccessType.WRITE)


class TestDirectory:
    def test_home_node_interleaving(self):
        directory = Directory(num_nodes=4)
        assert directory.home_of(0) == 0
        assert directory.home_of(5) == 1
        assert directory.home_of(7) == 3

    def test_cmob_pointers_newest_first_and_bounded(self):
        directory = Directory(num_nodes=4, cmob_pointers_per_block=2)
        directory.record_cmob_pointer(10, node=0, offset=5)
        directory.record_cmob_pointer(10, node=1, offset=9)
        directory.record_cmob_pointer(10, node=2, offset=12)
        pointers = directory.cmob_pointers(10)
        assert len(pointers) == 2
        assert pointers[0] == (2, 12)  # (node, offset), newest first
        assert pointers[1] == (1, 9)

    def test_same_node_pointer_refreshes_in_place(self):
        directory = Directory(num_nodes=4, cmob_pointers_per_block=2)
        directory.record_cmob_pointer(10, node=0, offset=5)
        directory.record_cmob_pointer(10, node=1, offset=7)
        directory.record_cmob_pointer(10, node=0, offset=20)
        pointers = directory.cmob_pointers(10)
        assert pointers == [(0, 20), (1, 7)]

    def test_pointer_storage_bits_formula(self):
        directory = Directory(num_nodes=16, cmob_pointers_per_block=2)
        # 2 pointers x (log2(16) + log2(2^18)) = 2 x (4 + 18) = 44 bits.
        assert directory.pointer_storage_bits(cmob_capacity=1 << 18) == 44


class TestMissClassification:
    def test_first_read_of_unwritten_block_is_cold(self):
        protocol = CoherenceProtocol(num_nodes=2)
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COLD_MISS

    def test_reread_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(read(0, 10))
        assert protocol.process(read(0, 10)).miss_class is MissClass.HIT

    def test_read_after_remote_write_is_consumption(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COHERENT_READ_MISS
        assert result.producer == 1
        assert result.is_consumption

    def test_read_after_own_write_is_hit(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(0, 10))
        assert protocol.process(read(0, 10)).miss_class is MissClass.HIT

    def test_spin_read_excluded_from_consumptions(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        result = protocol.process(read(0, 10, spin=True))
        assert result.miss_class is MissClass.SPIN_COHERENT_MISS
        assert not result.is_consumption

    def test_write_invalidates_remote_copies(self):
        protocol = CoherenceProtocol(num_nodes=2)
        protocol.process(write(1, 10))
        protocol.process(read(0, 10))        # node 0 now shares the block
        protocol.process(write(1, 10))       # node 1 writes again
        result = protocol.process(read(0, 10))
        assert result.miss_class is MissClass.COHERENT_READ_MISS

    def test_migratory_pattern_produces_consumption_chain(self):
        protocol = CoherenceProtocol(num_nodes=3)
        protocol.process(write(0, 42))
        for reader, writer in ((1, 1), (2, 2), (0, 0)):
            result = protocol.process(read(reader, 42))
            assert result.miss_class is MissClass.COHERENT_READ_MISS
            protocol.process(write(writer, 42))

    def test_holders_tracking(self):
        protocol = CoherenceProtocol(num_nodes=3)
        protocol.process(write(0, 7))
        protocol.process(read(1, 7))
        assert set(protocol.holders_of(7)) == {0, 1}

    def test_version_increments_per_write(self):
        protocol = CoherenceProtocol(num_nodes=2)
        for expected in range(1, 4):
            protocol.process(write(0, 3))
            assert protocol.version_of(3) == expected


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
        protocol.process_trace(accesses[:-1])
        last = accesses[-1]
        sent = []

        def emit(kind, src, dst):
            sent.append((MESSAGE_TYPES[kind], src, dst))

        if last.is_write:
            transaction_messages(protocol, last.node, last.address, emit)
            protocol.write_ints(last.node, last.address)
        else:
            code = protocol.read_ints(last.node, last.address, last.is_spin)
            transaction_messages(protocol, last.node, last.address, emit, code)
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

    def test_extract_consumptions_orders_and_indexes(self):
        protocol = CoherenceProtocol(num_nodes=2)
        accesses = [write(1, 10), write(1, 11), read(0, 10), read(0, 11)]
        results = [protocol.process(a) for a in accesses]
        per_node = extract_consumptions(results, 2)
        assert [c.address for c in per_node[0]] == [10, 11]
        assert [c.index for c in per_node[0]] == [0, 1]
        assert per_node[1] == []
