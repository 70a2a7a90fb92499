"""Prefetcher interface and the small prefetch buffer shared by the baselines."""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import List

from repro.common.stats import StatsRegistry
from repro.common.types import BlockAddress


class PrefetchBuffer:
    """A small fully-associative buffer for prefetched blocks.

    Mirrors the paper's methodology: "Prefetched blocks are stored in a small
    cache identical to TSE's SVB."  LRU replacement; entries are invalidated
    on writes by any node; an entry removed without being consumed is a
    discard.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[BlockAddress, bool]" = OrderedDict()
        #: Number of entries that left the buffer without being consumed.
        self.discards = 0
        #: Number of blocks ever inserted.
        self.fills = 0

    def insert(self, address: BlockAddress) -> None:
        """Insert a prefetched block, evicting LRU (a discard) when full."""
        if address in self._entries:
            self._entries.move_to_end(address)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.discards += 1
        self._entries[address] = True
        self.fills += 1

    def consume(self, address: BlockAddress) -> bool:
        """Hit: remove the block (it moves to the cache).  Returns hit/miss."""
        if address in self._entries:
            del self._entries[address]
            return True
        return False

    def invalidate(self, address: BlockAddress) -> bool:
        """A write invalidated the block; counts as a discard if present."""
        if address in self._entries:
            del self._entries[address]
            self.discards += 1
            return True
        return False

    def drain(self) -> int:
        """End of run: all remaining entries are discards."""
        leftover = len(self._entries)
        self.discards += leftover
        self._entries.clear()
        return leftover


class Prefetcher(abc.ABC):
    """Per-node prefetch engine interface.

    The harness calls :meth:`on_consumption` for every coherent read miss
    that was not satisfied by the prefetch buffer, and inserts whatever the
    prefetcher returns into the node's buffer.
    """

    name: str = "prefetcher"

    def __init__(self) -> None:
        self.stats = StatsRegistry(prefix=self.name)

    @abc.abstractmethod
    def on_consumption(self, address: BlockAddress, pc: int = 0) -> List[BlockAddress]:
        """Train on a consumption miss and return addresses to prefetch."""

    def on_hit(self, address: BlockAddress) -> List[BlockAddress]:
        """Called when an access hits in the prefetch buffer.

        Baselines do not chain further prefetches on buffer hits by default
        (unlike TSE, whose stream queues keep following the stream); override
        for prefetchers that do.
        """
        return []
