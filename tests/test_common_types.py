"""Unit tests for repro.common.types."""

import pytest

from repro.common.types import (
    TYPE_READ,
    TYPE_WRITE,
    AccessType,
    block_of,
    block_to_address,
)


class TestAccessType:
    def test_read_is_read(self):
        assert AccessType.READ.is_read
        assert not AccessType.READ.is_write

    def test_write_is_write(self):
        assert AccessType.WRITE.is_write
        assert not AccessType.WRITE.is_read

    def test_atomic_counts_as_write(self):
        assert AccessType.ATOMIC.is_write

    def test_spin_read_is_read_and_spin(self):
        assert AccessType.SPIN_READ.is_read
        assert AccessType.SPIN_READ.is_spin

    def test_normal_read_is_not_spin(self):
        assert not AccessType.READ.is_spin


class TestBlockMapping:
    @pytest.mark.parametrize(
        "address,block_size,expected",
        [(0x1000, 64, 64), (0x103F, 64, 64), (0x1040, 64, 65), (0, 64, 0), (127, 128, 0)],
    )
    def test_block_of(self, address, block_size, expected):
        assert block_of(address, block_size) == expected

    def test_block_to_address_round_trip(self):
        for block in (0, 1, 17, 1000):
            assert block_of(block_to_address(block, 64), 64) == block

    @pytest.mark.parametrize("bad", [0, -64, 63, 100])
    def test_non_power_of_two_block_size_rejected(self, bad):
        with pytest.raises(ValueError):
            block_of(100, bad)
        with pytest.raises(ValueError):
            block_to_address(1, bad)


class TestMemoryAccess:
    def test_access_properties(self, column_trace):
        trace = column_trace([(0, 5, TYPE_READ, 0, 1, 0), (0, 5, TYPE_WRITE, 0, 2, 0)], 1)
        read, write = trace.accesses
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read

    def test_default_dependent_flag(self, column_trace):
        (access,) = column_trace([(0, 1, TYPE_READ, 0, 1, 0)], 1).accesses
        assert access.dependent is False


class TestChunkedTrace:
    def test_append_and_len(self, column_trace):
        trace = column_trace([(0, 1, TYPE_READ, 0, 1, 0), (1, 2, TYPE_WRITE, 0, 1, 0)], 2)
        assert len(trace) == 2

    def test_append_rejects_out_of_range_node(self, column_trace):
        with pytest.raises(ValueError):
            column_trace([(2, 1, TYPE_READ, 0, 1, 0)], 2)
