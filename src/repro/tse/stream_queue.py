"""Stream queues: groups of FIFOs holding candidate streams with a common head.

The stream engine fetches one stream per recent consumer of the stream head
(up to the configured number of compared streams) and stores them in the
FIFOs of one stream queue.  While the FIFO heads agree, the engine fetches
blocks; when they disagree, the queue stalls until a subsequent off-chip miss
matches one of the heads, at which point the other FIFOs are discarded and
streaming resumes with the selected stream (Section 3.3).

The queue sits on the simulator's innermost loop (every consumption, SVB hit
and off-chip miss consults it), so the layout is flat and packed:

* each FIFO is a **packed byte buffer plus a byte cursor** (``_fifo_data`` /
  ``_fifo_pos``): 8 bytes per address, little-endian, the same layout CMOB
  windows arrive in.  Refills are ``memcpy``-class extends, head-agreement
  checks compare whole windows with ``memcmp``-class slice equality (see the
  engine's window-at-a-time ``_fetch_from``), miss probes are
  ``memmem``-class substring searches, and popping an agreed prefix is
  cursor arithmetic.  (A ``bytearray`` rather than an ``array('Q')`` because
  only the byte types compare and search without boxing an int per element
  in CPython.)
* stream sources are two parallel int lists (``_src_nodes`` /
  ``_src_next``), not per-FIFO objects;
* refill bookkeeping is one outstanding-request flag per FIFO
  (``_refill_pending``), served by the system layer's refill service;
* the queue state is a cached small int (:data:`STATE_ACTIVE` ...),
  maintained on every FIFO mutation instead of being recomputed on every
  read (the replay loop consults queue state once per off-chip miss per
  queue);
* refill *eligibility* is checked at mutation sites (:meth:`needs_refill`)
  rather than by rescanning every changed queue on every event — the
  engine's refill service only ever visits queues that are actually low,
  and parks (``_parked_at``) a low queue whose sources have nothing new.

The system layer and the engine populate, pop and refill the FIFOs in place
(``TemporalStreamingSystem.on_consumption``, ``StreamEngine._fetch_from``,
``TemporalStreamingSystem._service_refills``); the methods here are the
queue-local steps they share.  Thresholds and windows are counted in
*addresses* (``lookahead``, the ``needs_refill`` threshold,
``skip_address``'s search window); the byte layout is internal.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.types import BlockAddress
from repro.tse.layout import SLOT_BYTEORDER, SLOT_BYTES, SLOT_SHIFT

# Short aliases of the shared slot-layout constants (repro.tse.layout, the
# single source RL004 enforces): byte width of one packed address, its log2
# (slot-count <-> byte-offset shifts) and alignment mask, and the packed
# byte order.
_SLOT = SLOT_BYTES
_SHIFT = SLOT_SHIFT
_MASK = SLOT_BYTES - 1
_ORDER = SLOT_BYTEORDER


#: Lifecycle of a stream queue, cached as a small int in
#: :attr:`StreamQueue.state_code`.  FIFO heads agree (or only one stream is
#: present): blocks may be fetched.
STATE_ACTIVE = 0
#: FIFO heads disagree: fetching paused, waiting for a confirming miss.
STATE_STALLED = 1
#: All FIFOs exhausted: the queue can be reclaimed.
STATE_DRAINED = 2

#: Consumed FIFO prefixes longer than this many *bytes* are compacted away on
#: refill.  Kept small: compacting a packed buffer is one cheap ``memmove``,
#: and short FIFOs keep the engine's whole-buffer miss probes effectively
#: free.
_COMPACT_THRESHOLD = 512


class StreamQueue:
    """One stream queue: up to N FIFOs sharing a stream head.

    Attributes:
        queue_id: Identity used to tag SVB entries fetched by this queue.
        head: The consumption address that triggered the queue's allocation.
        lookahead: Maximum number of fetched-but-unconsumed blocks allowed.
    """

    __slots__ = (
        "queue_id",
        "head",
        "lookahead",
        "_fifo_data",
        "_fifo_pos",
        "_src_nodes",
        "_src_next",
        "_selected",
        "in_flight",
        "total_fetched",
        "total_hits",
        "_refill_pending",
        "last_active",
        "state_code",
        "_stall_heads",
        "_parked_at",
        "_parked_sources",
    )

    def __init__(self, queue_id: int, head: BlockAddress, lookahead: int) -> None:
        self.queue_id = queue_id
        self.head = head
        self.lookahead = lookahead
        #: Per-FIFO packed address storage and *byte* consumption cursor: the
        #: live entries of FIFO ``i`` are ``_fifo_data[i][_fifo_pos[i]:]``.
        self._fifo_data: List[bytearray] = []
        self._fifo_pos: List[int] = []
        #: Per-FIFO stream source: CMOB owner and the monotonic offset of the
        #: next address to request on refill (-1 node == no source).
        self._src_nodes: List[int] = []
        self._src_next: List[int] = []
        #: Index of the FIFO selected after a stall resolution; None while
        #: all FIFOs are still being compared.
        self._selected: Optional[int] = None
        #: Number of blocks fetched into the SVB and not yet consumed.
        self.in_flight = 0
        #: Total blocks fetched through this queue (for statistics).
        self.total_fetched = 0
        #: Total SVB hits credited to this queue.
        self.total_hits = 0
        #: True once a refill request has been issued and not yet satisfied.
        self._refill_pending: List[bool] = []
        #: Last consumption order index at which this queue saw activity
        #: (hit or allocation); used for LRU reclamation by the engine.
        self.last_active = 0
        #: Cached :data:`STATE_*` code, maintained on every FIFO mutation.
        self.state_code = STATE_DRAINED
        #: Lazily computed tuple of the disagreeing FIFO heads while the
        #: queue is STALLED (heads cannot change during a stall), used by
        #: the engine's miss scan as an O(1) pre-check before attempting
        #: stall resolution.  Invalidated whenever ``state_code`` changes.
        self._stall_heads = None
        #: Refill parking (``TemporalStreamingSystem._service_refills``): the
        #: consumer's CMOB append count when the queue was parked, or -1,
        #: and the source node of each refill one skipped service counts.
        self._parked_at = -1
        self._parked_sources: Tuple[int, ...] = ()

    def reset(self, queue_id: int, head: BlockAddress, lookahead: int) -> None:
        """Re-initialize a reclaimed queue in place (allocation pooling)."""
        self.queue_id = queue_id
        self.head = head
        self.lookahead = lookahead
        self._fifo_data.clear()
        self._fifo_pos.clear()
        self._src_nodes.clear()
        self._src_next.clear()
        self._refill_pending.clear()
        self._selected = None
        self.in_flight = 0
        self.total_fetched = 0
        self.total_hits = 0
        self.state_code = STATE_DRAINED
        self._stall_heads = None

    def _recompute_state(self) -> None:
        """Refresh :attr:`state_code` after a FIFO mutation (single pass)."""
        selected = self._selected
        data = self._fifo_data
        pos = self._fifo_pos
        if selected is not None:
            self.state_code = (
                STATE_ACTIVE if pos[selected] < len(data[selected]) else STATE_DRAINED
            )
            self._stall_heads = None
            return
        # Count non-empty FIFOs and compare their packed heads.
        non_empty = 0
        first_head = b""
        for i in range(len(data)):
            fifo = data[i]
            p = pos[i]
            if p < len(fifo):
                head = fifo[p:p + _SLOT]
                if non_empty == 0:
                    first_head = head
                elif head != first_head:
                    # At least two live FIFOs disagree at the front.
                    self.state_code = STATE_STALLED
                    self._stall_heads = None
                    return
                non_empty += 1
        self.state_code = STATE_DRAINED if non_empty == 0 else STATE_ACTIVE
        self._stall_heads = None

    def heads(self) -> List[BlockAddress]:
        """Current FIFO heads of all live, non-empty FIFOs."""
        data = self._fifo_data
        pos = self._fifo_pos
        if self._selected is not None:
            i = self._selected
            if pos[i] < len(data[i]):
                p = pos[i]
                return [int.from_bytes(data[i][p:p + _SLOT], _ORDER)]
            return []
        return [
            int.from_bytes(data[i][pos[i]:pos[i] + _SLOT], _ORDER)
            for i in range(len(data))
            if pos[i] < len(data[i])
        ]

    # -------------------------------------------------------------- accounting
    def on_block_lost(self) -> None:
        """A fetched block left the SVB without being used (evict/invalidate)."""
        if self.in_flight > 0:
            self.in_flight -= 1

    # ----------------------------------------------------------- stall handling
    def _resolve_stall(self, miss_address: BlockAddress) -> bool:
        """A consumption missed on ``miss_address`` while this queue is STALLED.

        If the address matches one FIFO head, that FIFO is selected, the
        other FIFOs are no longer followed, and the matched address is
        dropped (the processor already missed on it, so streaming it would
        be wasted).  Returns True when the stall was resolved.  The caller
        has already checked that the queue is STALLED.
        """
        # STALLED implies no FIFO is selected yet: scan all of them.
        data = self._fifo_data
        pos = self._fifo_pos
        packed = miss_address.to_bytes(_SLOT, _ORDER)
        for i in range(len(data)):
            fifo = data[i]
            p = pos[i]
            if p < len(fifo) and fifo[p:p + _SLOT] == packed:
                self._selected = i
                p += _SLOT
                pos[i] = p  # the processor already has this block
                self.state_code = STATE_ACTIVE if p < len(fifo) else STATE_DRAINED
                self._stall_heads = None
                return True
        return False

    def skip_address(self, address: BlockAddress) -> bool:
        """Drop ``address`` from the front region of the live FIFOs.

        Used when the processor misses on an address that is queued (but not
        yet fetched) slightly ahead of the agreed position — the stream
        engine realigns rather than streaming a block the processor already
        obtained.  Only a small window (the lookahead) is searched, mirroring
        the SVB's tolerance of small reorderings; the search itself is an
        aligned ``memmem``-class scan of the packed window.  Returns True if
        found.
        """
        found = False
        data = self._fifo_data
        pos = self._fifo_pos
        window_limit = self.lookahead if self.lookahead > 1 else 1
        packed = address.to_bytes(_SLOT, _ORDER)
        if self._selected is not None:
            indices: Tuple[int, ...] = (self._selected,)
        else:
            indices = tuple(range(len(data)))
        for i in indices:
            fifo = data[i]
            p = pos[i]
            live = len(fifo) - p
            window = live if live < (window_limit << _SHIFT) else (window_limit << _SHIFT)
            stop = p + window
            at = fifo.find(packed, p, stop)
            while at >= 0 and (at - p) & _MASK:
                # Unaligned substring match: resume at the next byte.
                at = fifo.find(packed, at + 1, stop)
            if at >= 0:
                del fifo[at:at + _SLOT]
                found = True
        if found:
            self._recompute_state()
        return found

    # ------------------------------------------------------------------ refills
    def needs_refill(self, threshold: int) -> bool:
        """Is any followed FIFO at or below the refill threshold (addresses)?

        The mutation-site replacement for the old changed-queue rescan: the
        engine calls this after every event that can lower a FIFO level
        (fetch pops, skip-deletes, stall selection, initial population) and
        queues the refill service only when it returns True.  Mirrors the
        eligibility predicate of the service exactly — live level at or
        below ``threshold``, a real source, no request outstanding.
        """
        selected = self._selected
        data = self._fifo_data
        if selected is not None:
            indices: Tuple[int, ...] = (selected,)
        else:
            indices = tuple(range(len(data)))
        pos = self._fifo_pos
        pending = self._refill_pending
        src_nodes = self._src_nodes
        threshold8 = threshold << _SHIFT
        for i in indices:
            if (
                not pending[i]
                and src_nodes[i] >= 0
                and len(data[i]) - pos[i] <= threshold8
            ):
                return True
        return False
