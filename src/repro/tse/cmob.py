"""Coherence Miss Order Buffer (CMOB).

Each node appends the addresses of its coherent read misses (and of useful
streamed blocks, which replace misses one-for-one) to a large circular buffer
held in a private region of main memory (Section 3.1).  The directory stores,
for each block, pointers into the CMOBs of its most recent consumers; on a
subsequent miss those pointers let TSE read the sub-sequence that followed
the block last time — the candidate stream.

The offsets :meth:`TemporalStreamingSystem._record
<repro.tse.engine.TemporalStreamingSystem._record>` hands to the directory
are *monotonic append counts*, not physical slot indices, so stale pointers
(overwritten after wrap-around) are detected rather than silently returning
unrelated addresses.

Storage is a flat circular buffer of 64-bit entries grown lazily up to
``capacity`` slots, held as a packed little-endian byte buffer
(``bytearray``, 8 bytes per entry).  The byte-packed representation is
deliberate: it is the one CPython buffer type whose comparisons and searches
run at ``memcmp``/``memmem`` speed without boxing an int per element (the
``array`` module's rich comparison unpacks every item), which is what makes
the stream engine's window-at-a-time agreement checks and miss probes
C-fast.  The monotonic append count doubles as the validity watermark
(offsets below ``appended - capacity`` have been overwritten).  Stream reads
append a packed window straight onto a destination buffer
(:meth:`CMOB.extend_into`) with one or two slice copies, never a per-offset
loop, so a 32–64 address read is a single ``memcpy``-class operation end to
end.

Wrap-around semantics of window reads (locked by tests):

* a *stale* start offset (older than ``appended - capacity``) yields an
  **empty** window — never a partial window resynchronized to the oldest
  resident entry, because the entries that replaced the overwritten ones
  belong to an unrelated, much later part of the order;
* a *future* start offset (``>= appended``) likewise yields nothing;
* a valid start is truncated at the append watermark: every returned entry
  is resident and positionally exact, so windows may be shorter than
  requested but are never silently padded or misaligned.
"""

from __future__ import annotations

from repro.tse.layout import SLOT_SHIFT

# Short alias used on the hot path below.
_SHIFT = SLOT_SHIFT


class CMOB:
    """A fixed-capacity circular buffer of block addresses with monotonic offsets."""

    __slots__ = ("capacity", "_data", "_appended")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("CMOB capacity must be positive")
        self.capacity = capacity
        #: Physical storage, grown lazily up to ``capacity`` packed entries:
        #: slot ``offset % capacity`` is appended exactly when the buffer
        #: first reaches it, so ``len(_data) == SLOT_BYTES * min(appended, capacity)``
        #: always holds and huge "near-infinite" CMOBs cost only what they
        #: use.
        self._data = bytearray()
        #: Total number of appends ever performed; the next append gets this
        #: offset.  Doubles as the validity watermark: offsets below
        #: ``_appended - capacity`` have been overwritten.
        self._appended = 0

    def extend_into(self, dest: bytearray, start_offset: int, count: int) -> int:
        """Append a packed stream window directly onto ``dest``; return its length.

        This models the protocol controller reading a stream of subsequent
        addresses from the CMOB (Section 3.2 step 3): one or two
        ``memcpy``-class extends straight into a stream-queue FIFO buffer,
        with no intermediate window object and no per-address reads.
        Returns the number of *addresses* appended: at most ``count``,
        fewer when the order ends, and none when the start is stale or in
        the future (see the module docstring).
        """
        if count <= 0:
            return 0
        end = self._appended
        capacity = self.capacity
        if start_offset < 0 or start_offset < end - capacity or start_offset >= end:
            return 0
        stop = start_offset + count
        if stop > end:
            stop = end
        n = stop - start_offset
        lo = (start_offset % capacity) << _SHIFT
        hi = lo + (n << _SHIFT)
        data = self._data
        cap8 = capacity << _SHIFT
        if hi <= cap8:
            dest += data[lo:hi]
        else:
            dest += data[lo:]
            dest += data[: hi - cap8]
        return n
