"""Per-node stream engine.

The stream engine owns the node's stream queues and SVB.  The system layer
(:class:`~repro.tse.engine.TemporalStreamingSystem`) drives it through the
four events of Section 3.3:

* an address stream arriving for a recent consumption: the system layer
  allocates a queue (reclaiming the least recently active one when all are
  busy), fills its FIFOs with the forwarded windows, and calls
  :meth:`StreamEngine._fetch_from` to fetch while the FIFO heads agree;
* an SVB hit: the system layer consumes the entry, credits its queue and
  calls ``_fetch_from`` for the next block of the stream;
* an off-chip miss (:meth:`StreamEngine.on_offchip_miss`): stalled queues
  check the miss address against their FIFO heads and resume the matching
  stream; active queues drop it when it sits just ahead;
* a write by any node (:meth:`StreamEngine.on_invalidate`): the matching SVB
  entry is invalidated.

The engine itself is policy only: the system layer performs the actual
block "transfers" and accounts for traffic and latency.

Performance notes: the compare plane is **window-at-a-time** over the packed
byte FIFOs (8 bytes per address, the CMOB window layout):
:meth:`StreamEngine._fetch_from` finds the agreed prefix of the compared
streams with ``memcmp``-class slice equality (a binary search pins the first
divergence index when whole windows disagree), pops it with cursor
arithmetic, unpacks it once (a single ``struct`` call) for the SVB filter,
and emits it as one fetch *batch* ``(queue_id, [addresses])`` (see
:data:`FetchBatch`); single-FIFO and selected queues short-circuit to a
plain slice walk.  Off-chip misses probe active FIFOs with a
``memmem``-class packed substring search (misaligned or already-consumed
matches are false positives that the precise windowed ``skip_address``
rejects), so the common nothing-matches miss never boxes an address.  Every
off-chip miss and refill pass scans the queues, so the engine keeps a *scan
set* holding only queues that can still react — drained queues with no
refill outstanding are zombies (they can never leave ``DRAINED``) and are
pruned from the scan set the first time a pass visits them.  The full
``_queues`` map keeps zombies for LRU reclamation and the stream-length
census.  The refill-dirty set holds only queues whose FIFOs are actually
*eligible* for a refill (``StreamQueue.needs_refill`` checked at each
mutation site), so the system layer's refill service runs only when there is
real work.  A queue the service parked (its low FIFOs' sources have nothing
new) waits outside the set; the engine puts it back when a resolved stall,
a skipped address or a lost SVB block (a write's invalidation here, an
eviction in the system layer) can change what its next refill does.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.common.config import TSEConfig
from repro.common.types import BlockAddress, NodeId
from repro.tse.layout import (
    SLOT_BYTEORDER,
    SLOT_BYTES,
    SLOT_FORMAT,
    SLOT_SHIFT,
    window_format,
)
from repro.tse.stream_queue import (
    STATE_ACTIVE,
    STATE_DRAINED,
    STATE_STALLED,
    StreamQueue,
)
from repro.tse.svb import StreamedValueBuffer, SVBEntry

# Short aliases of the shared slot layout (repro.tse.layout; RL004): byte
# width of one packed address, its log2 for slot<->byte shifts, byte order.
_SLOT = SLOT_BYTES
_SHIFT = SLOT_SHIFT
_ORDER = SLOT_BYTEORDER

#: A batch of blocks the engine wants streamed into the SVB, all fetched by
#: one queue in one event: ``(queue_id, [address, ...])``.  Batches preserve
#: the exact per-block fetch order of the old per-block tuples; they are
#: flattened in order by the system layer's ``deliver_all``.
FetchBatch = Tuple[int, List[BlockAddress]]

#: One candidate stream forwarded to a consumer's engine (Figure 4, step 4):
#: ``(source_node, next_offset, window)`` — the CMOB it came from, the
#: monotonic offset of the next address to request on refill, and the
#: packed CMOB window that becomes the FIFO storage.
CandidateStream = Tuple[NodeId, int, bytearray]

#: Single-address unpack for the take==1 fast path (a freed lookahead slot).
_U1 = struct.Struct(SLOT_FORMAT).unpack_from

#: Lazily built ``n``-address unpackers for boxing a whole agreed window in
#: one C call.
_UNPACKERS: Dict[int, object] = {}


def _window_unpacker(n: int):
    unpacker = _UNPACKERS.get(n)
    if unpacker is None:
        unpacker = _UNPACKERS[n] = struct.Struct(window_format(n)).unpack_from
    return unpacker


def _lcp(d0: bytearray, p0: int, d1: bytearray, p1: int, limit: int) -> int:
    """Longest common prefix (in addresses, ``<= limit``) of two packed windows.

    The caller has already established that the full ``limit``-address
    windows are *not* equal, so the divergence index is found by binary
    search over ``memcmp``-class slice comparisons — O(log limit) compares
    instead of a Python loop over elements.
    """
    if d0[p0:p0 + _SLOT] != d1[p1:p1 + _SLOT]:
        return 0
    lo, hi = 1, limit - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        m8 = mid << _SHIFT
        if d0[p0:p0 + m8] == d1[p1:p1 + m8]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class StreamEngine:
    """Manages stream queues and decides which blocks to fetch."""

    def __init__(self, config: TSEConfig) -> None:
        self.config = config
        self.svb = StreamedValueBuffer(config.svb_entries)
        self._queues: Dict[int, StreamQueue] = {}
        #: Queues that may still react to misses/refills, in allocation order.
        #: Strict subset of ``_queues``: zombies (drained, no refill pending)
        #: are dropped here but stay in ``_queues`` until reclaimed.
        self._scan_queues: Dict[int, StreamQueue] = {}
        #: Queues with at least one refill-eligible FIFO (low, sourced, no
        #: request outstanding), maintained at every mutation site via
        #: ``StreamQueue.needs_refill``.  The system layer's refill service
        #: drains it in queue-id order.
        self._refill_dirty: set = set()
        self._refill_threshold = config.refill_threshold
        #: Refill threshold in packed bytes (8 per address), for the inline
        #: eligibility checks against byte cursors.
        self._refill_threshold8 = config.refill_threshold << _SHIFT
        self._next_queue_id = 0
        self._activity_clock = 0
        #: Hit counts of queues that have been reclaimed, kept so the
        #: stream-length distribution (Figure 13) covers the whole run.
        self.retired_queue_hits: List[int] = []

    # ------------------------------------------------------------------ fetches
    def _fetch_from(self, queue: StreamQueue) -> List[BlockAddress]:
        """Pop the agreed window for a queue and return its fetch batch.

        Pops the addresses every followed FIFO agrees on, one lookahead
        credit per fetched block, until the lookahead is reached or the
        heads stop agreeing (the queue then stalls).  The agreed
        prefix of the compared FIFOs is found with packed-slice comparisons
        (binary-searching the divergence index when a whole window
        disagrees), popped with cursor arithmetic, and filtered against the
        SVB in one pass over a boxed-once window tuple.  Blocks already
        resident in the SVB are popped but not refetched and do not consume
        lookahead — another queue fetched them; refetching would
        double-count traffic.  Selected and single-FIFO queues short-circuit
        to plain slice walks.

        Callers that may have lowered a FIFO level through other means
        (skip-deletes, stall selection) must check ``needs_refill``
        themselves; this method checks it only when it popped something.
        """
        if queue.state_code != STATE_ACTIVE:
            return []
        budget = queue.lookahead - queue.in_flight
        if budget <= 0:
            return []
        svb_entries = self.svb._entries
        data = queue._fifo_data
        pos = queue._fifo_pos
        selected = queue._selected
        batch: List[BlockAddress] = []
        append = batch.append
        popped = 0

        if selected is None and len(data) == 2:
            # The dominant comparing shape: two FIFOs.  Pop the agreed
            # prefix window-by-window while both are live, then continue on
            # the survivor alone.
            d0 = data[0]
            d1 = data[1]
            p0 = pos[0]
            p1 = pos[1]
            n0 = len(d0)
            n1 = len(d1)
            while budget > 0:
                k = (n0 - p0) >> _SHIFT
                k1 = (n1 - p1) >> _SHIFT
                if k1 < k:
                    k = k1
                if k <= 0:
                    break  # at least one FIFO exhausted
                m = k if k < budget else budget
                if m == 1:
                    # Post-hit shape: a single freed lookahead slot.
                    if d0[p0:p0 + _SLOT] != d1[p1:p1 + _SLOT]:
                        break  # heads diverged: stall (derived below)
                    address = _U1(d0, p0)[0]
                    p0 += _SLOT
                    p1 += _SLOT
                    popped += 1
                    if address not in svb_entries:
                        append(address)
                        budget -= 1
                    continue
                m8 = m << _SHIFT
                if d0[p0:p0 + m8] == d1[p1:p1 + m8]:
                    agreed = m
                else:
                    agreed = _lcp(d0, p0, d1, p1, m)
                    if agreed == 0:
                        break  # heads diverged: stall (derived below)
                window = _window_unpacker(agreed)(d0, p0)
                agreed8 = agreed << _SHIFT
                p0 += agreed8
                p1 += agreed8
                popped += agreed
                for address in window:
                    if address not in svb_entries:
                        append(address)
                        budget -= 1
                if agreed < m:
                    break  # divergence inside the window: stall
            if budget > 0 and (p0 >= n0) != (p1 >= n1):
                # Exactly one FIFO exhausted: the survivor streams alone.
                first_live = p0 < n0
                if first_live:
                    d, p, size = d0, p0, n0
                else:
                    d, p, size = d1, p1, n1
                while budget > 0 and p < size:
                    take = (size - p) >> _SHIFT
                    if take > budget:
                        take = budget
                    if take == 1:
                        address = _U1(d, p)[0]
                        p += _SLOT
                        popped += 1
                        if address not in svb_entries:
                            append(address)
                            budget -= 1
                        continue
                    window = _window_unpacker(take)(d, p)
                    p += take << _SHIFT
                    popped += take
                    for address in window:
                        if address not in svb_entries:
                            append(address)
                            budget -= 1
                if first_live:
                    p0 = p
                else:
                    p1 = p
            pos[0] = p0
            pos[1] = p1
            if popped:
                if p0 >= n0 and p1 >= n1:
                    queue.state_code = STATE_DRAINED
                elif p0 >= n0 or p1 >= n1 or d0[p0:p0 + _SLOT] == d1[p1:p1 + _SLOT]:
                    queue.state_code = STATE_ACTIVE
                else:
                    queue.state_code = STATE_STALLED
                queue._stall_heads = None
                queue.total_fetched += popped
                queue.in_flight += len(batch)
                # Inline refill-eligibility check over both FIFOs.
                threshold8 = self._refill_threshold8
                pending = queue._refill_pending
                src_nodes = queue._src_nodes
                if (
                    (not pending[0] and src_nodes[0] >= 0 and n0 - p0 <= threshold8)
                    or (not pending[1] and src_nodes[1] >= 0 and n1 - p1 <= threshold8)
                ):
                    self._refill_dirty.add(queue.queue_id)
            return batch
        if selected is not None or len(data) == 1:
            # One followed FIFO (selected after a stall, or a single
            # candidate stream): the agreed window is a plain slice.
            i = selected if selected is not None else 0
            fifo = data[i]
            p = pos[i]
            size = len(fifo)
            while budget > 0 and p < size:
                take = (size - p) >> _SHIFT
                if take > budget:
                    take = budget
                if take == 1:
                    address = _U1(fifo, p)[0]
                    p += _SLOT
                    popped += 1
                    if address not in svb_entries:
                        append(address)
                        budget -= 1
                    continue
                window = _window_unpacker(take)(fifo, p)
                p += take << _SHIFT
                popped += take
                for address in window:
                    if address not in svb_entries:
                        append(address)
                        budget -= 1
            pos[i] = p
            if p == size:
                queue.state_code = STATE_DRAINED
                queue._stall_heads = None
            if popped:
                queue.total_fetched += popped
                queue.in_flight += len(batch)
                # Inline refill-eligibility check for the one followed FIFO.
                if (
                    not queue._refill_pending[i]
                    and queue._src_nodes[i] >= 0
                    and size - p <= self._refill_threshold8
                ):
                    self._refill_dirty.add(queue.queue_id)
            return batch
        # General comparing case (3+ FIFOs): agreed prefix against the first
        # live FIFO, window-at-a-time, re-deriving the live set whenever the
        # shortest FIFO drains.
        nf = len(data)
        while budget > 0:
            live = [i for i in range(nf) if pos[i] < len(data[i])]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                fifo = data[i]
                p = pos[i]
                size = len(fifo)
                while budget > 0 and p < size:
                    take = (size - p) >> _SHIFT
                    if take > budget:
                        take = budget
                    window = _window_unpacker(take)(fifo, p)
                    p += take << _SHIFT
                    popped += take
                    for address in window:
                        if address not in svb_entries:
                            append(address)
                            budget -= 1
                pos[i] = p
                break
            i0 = live[0]
            d0 = data[i0]
            p0 = pos[i0]
            k = min((len(data[i]) - pos[i]) >> _SHIFT for i in live)
            m = k if k < budget else budget
            agreed = m
            for i in live[1:]:
                di = data[i]
                pi = pos[i]
                a8 = agreed << _SHIFT
                if d0[p0:p0 + a8] != di[pi:pi + a8]:
                    agreed = _lcp(d0, p0, di, pi, agreed)
                    if agreed == 0:
                        break
            if agreed:
                window = _window_unpacker(agreed)(d0, p0)
                agreed8 = agreed << _SHIFT
                for i in live:
                    pos[i] += agreed8
                popped += agreed
                for address in window:
                    if address not in svb_entries:
                        append(address)
                        budget -= 1
            if agreed < m:
                break  # divergence: stall (derived below)
        if popped:
            queue._recompute_state()

        if popped:
            queue.total_fetched += popped
            queue.in_flight += len(batch)
            if queue.needs_refill(self._refill_threshold):
                self._refill_dirty.add(queue.queue_id)
        return batch

    # ------------------------------------------------------------------ misses
    def on_offchip_miss(self, address: BlockAddress) -> List[FetchBatch]:
        """An off-chip read missed (no SVB hit).

        Stalled queues check the miss address against their FIFO heads; a
        match selects that stream and resumes fetching (Section 3.3).  Active
        queues check whether the miss address sits slightly ahead in their
        pending FIFO entries and drop it to stay aligned.
        """
        self._activity_clock += 1
        batches: List[FetchBatch] = []
        threshold = self._refill_threshold
        dirty = self._refill_dirty
        scan = self._scan_queues
        packed: Optional[bytes] = None
        zombies: Optional[List[StreamQueue]] = None
        for queue in scan.values():
            state = queue.state_code
            if state == STATE_STALLED:
                # A stalled queue's heads cannot change while it is stalled,
                # so the (lazily cached) head tuple is an O(1) reject for the
                # overwhelmingly common no-match case.
                heads = queue._stall_heads
                if heads is None:
                    heads = tuple(queue.heads())
                    queue._stall_heads = heads
                if address in heads and queue._resolve_stall(address):
                    queue.last_active = self._activity_clock
                    batch = self._fetch_from(queue)
                    if batch:
                        batches.append((queue.queue_id, batch))
                    # Selecting one FIFO (and dropping the matched head) can
                    # leave it refill-eligible even when nothing was popped;
                    # a parked queue is served again either way.
                    if queue._parked_at >= 0 or queue.needs_refill(threshold):
                        dirty.add(queue.queue_id)
            elif state == STATE_ACTIVE:
                # Allocation-light reject: a ``memmem``-class substring probe
                # over each whole packed FIFO over-approximates the windowed
                # search (consumed, beyond-window, or misaligned matches are
                # false positives the precise ``skip_address`` rejects);
                # FIFOs stay short by compaction, so the probe is a few
                # cache lines and never boxes an address.
                if packed is None:
                    packed = address.to_bytes(_SLOT, _ORDER)
                data = queue._fifo_data
                selected = queue._selected
                if selected is not None:
                    probable = packed in data[selected]
                else:
                    probable = False
                    for fifo in data:
                        if packed in fifo:
                            probable = True
                            break
                if probable and queue.skip_address(address):
                    queue.last_active = self._activity_clock
                    batch = self._fetch_from(queue)
                    if batch:
                        batches.append((queue.queue_id, batch))
                    # The skip-delete lowered a FIFO level by one (a parked
                    # queue's low FIFO stays low, so this also wakes it).
                    if queue.needs_refill(threshold):
                        dirty.add(queue.queue_id)
            else:
                # Drained: refills are collected and served synchronously
                # within the event that made them necessary, so a drained
                # queue can never be revived.
                if zombies is None:
                    zombies = [queue]
                else:
                    zombies.append(queue)
        if zombies is not None:
            for queue in zombies:
                # Re-check: a resolved stall above may have revived fetching,
                # but a queue observed DRAINED in this pass cannot have been
                # refilled meanwhile, so dropping it is safe.
                scan.pop(queue.queue_id, None)
        return batches

    # ------------------------------------------------------------- invalidation
    def on_invalidate(self, address: BlockAddress) -> Optional[SVBEntry]:
        """A write (by any node) invalidates the matching SVB entry."""
        entry = self.svb.invalidate(address)
        if entry is not None:
            queue = self._queues.get(entry[1])
            if queue is not None:
                queue.on_block_lost()
                if queue._parked_at >= 0:
                    # A freed lookahead slot: the next service may fetch.
                    self._refill_dirty.add(queue.queue_id)
        return entry

    # ---------------------------------------------------------------- cleanup
    def drain(self) -> List[SVBEntry]:
        """End of simulation: every unconsumed SVB entry is a discard."""
        return self.svb.drain()

    def stream_length_samples(self) -> List[int]:
        """Realized stream lengths (hits per queue), retired and live queues."""
        live = [q.total_hits for q in self._queues.values()]
        return self.retired_queue_hits + live
