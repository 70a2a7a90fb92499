"""Unit tests for repro.common.types."""

import pytest

from repro.common.types import (
    ACCESS_TYPE_FROM_CODE,
    TYPE_ATOMIC,
    TYPE_IS_WRITE,
    TYPE_READ,
    TYPE_SPIN_READ,
    TYPE_WRITE,
    AccessType,
)


class TestAccessType:
    def test_atomic_counts_as_write(self):
        codes = (TYPE_READ, TYPE_WRITE, TYPE_SPIN_READ, TYPE_ATOMIC)
        assert [ACCESS_TYPE_FROM_CODE[code] for code in codes] == [
            AccessType.READ, AccessType.WRITE, AccessType.SPIN_READ, AccessType.ATOMIC]
        assert [TYPE_IS_WRITE[code] for code in codes] == [False, True, False, True]


class TestMemoryAccess:
    def test_access_properties(self, column_trace):
        trace = column_trace([(0, 5, TYPE_READ, 0, 1, 0), (0, 5, TYPE_WRITE, 0, 2, 0)], 1)
        read, write = trace.accesses
        assert read.access_type is AccessType.READ
        assert write.access_type is AccessType.WRITE

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
