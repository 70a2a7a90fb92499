"""Streamed Value Buffer (SVB).

A small, fully-associative buffer that holds streamed cache blocks until the
processor consumes them (Section 3.3).  Each entry carries the block address,
the id of the stream queue that fetched it and its fill time.  Entries hold
only clean data and are invalidated when any node (including the local one)
writes the block.

The SVB is deliberately separate from the cache hierarchy: it avoids
polluting the caches with mispredicted blocks and provides a small window
that tolerates slight reordering between the stream and the processor's
actual access sequence.

The buffer sits on the replay fast path, so it is a plain container: entries
are tuples ``(address, queue_id, fill_time)`` — see
:data:`SVBEntry` — in an insertion-ordered dict used as the LRU, most
recently filled last.  The system layer fills it and consumes hits straight
from that dict (:meth:`TemporalStreamingSystem.deliver_all
<repro.tse.engine.TemporalStreamingSystem.deliver_all>` and ``on_svb_hit``);
the buffer itself only answers membership, invalidates a written block and
drains at the end of a run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.types import BlockAddress

#: One streamed block resident in the SVB: ``(address, queue_id,
#: fill_time)``.  ``fill_time`` is the simulation time (or trace index) at
#: which the block was streamed in; the timing model uses it to decide
#: whether the block arrived early enough (full coverage) or was still in
#: flight (partial coverage).
SVBEntry = Tuple[BlockAddress, int, float]


class StreamedValueBuffer:
    """Fully-associative, LRU-replaced buffer of streamed blocks.

    ``capacity_entries`` of 2**22 or more behaves as the "infinite SVB" used
    in the paper's sensitivity study.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("SVB capacity must be positive")
        self.capacity = capacity_entries
        # Insertion-ordered dict as an LRU: most-recently-filled at the end.
        self._entries: Dict[BlockAddress, SVBEntry] = {}

    def __contains__(self, address: BlockAddress) -> bool:
        return address in self._entries

    def invalidate(self, address: BlockAddress) -> Optional[SVBEntry]:
        """Invalidate a block on a write by any processor; return the entry."""
        return self._entries.pop(address, None)

    def drain(self) -> List[SVBEntry]:
        """Remove and return every entry (end-of-simulation discard accounting)."""
        remaining = list(self._entries.values())
        self._entries.clear()
        return remaining
