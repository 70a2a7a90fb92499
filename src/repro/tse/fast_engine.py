"""The batched-orchestration TSE replay plane (``mode="fast"``).

``FastTemporalStreamingSystem`` is a second, deliberately *non-bit-identical*
implementation of the Temporal Streaming Engine over the same packed
CMOB/FIFO layout as :mod:`repro.tse.engine`.  It trades per-event exactness
for throughput and is validated against per-metric tolerance bands on
coverage, discards and stream length instead
(``benchmarks/validate_fast_mode.py``; coverage within ±0.02 absolute —
locked by ``tests/test_fast_mode.py``).  Only an explicit ``mode="fast"``
bare replay reaches it (:class:`repro.tse.simulator.TSESimulator`): it
records no outcomes and accounts no traffic, and no figure runs it.

What is batched or hoisted relative to the exact plane:

* **Fused fetch + delivery** (:meth:`_pump`): the agreed window of a stream
  queue is popped, SVB-filtered and installed into the SVB in one pass —
  no ``FetchBatch`` plumbing, no per-event batch lists, no separate
  ``deliver_all`` walk, no per-entry fill-time bookkeeping.  SVB entries are
  ``(queue, queue_id)`` pairs built once per pump, so hit crediting is one
  identity check instead of a queue-table lookup.
* **Deep windows + refill-on-empty**: candidate streams are read
  ``queue_depth * REFILL_FACTOR`` addresses at a time and a FIFO is
  refilled (inline, inside the pump) only when it runs dry — replacing the
  exact plane's half-empty threshold, refill-dirty set and per-event
  refill service with ~4-8x fewer, larger CMOB window reads.  Streams are
  *continued* (monotonic source offsets), so realized stream lengths are
  preserved rather than truncated.
* **Slot-table queues**: per-node queues live in a flat list bounded by
  ``stream_queues`` whose :class:`~repro.tse.stream_queue.StreamQueue`
  objects are reused in place forever — no queue-id dict, no scan-set or
  zombie pruning, no per-allocation mapping churn.
* **Bounded realignment probes**: the off-chip-miss scan probes only the
  lookahead window of each active FIFO (``bytes.find`` with bounds) instead
  of the whole packed buffer.

What is *not* approximated: stream location through directory CMOB
pointers, LRU queue reclamation and stall resolution, the SVB's capacity /
LRU / invalidate-on-write semantics, CMOB recording of consumptions and
hits, and the system-wide residency gate for writes — these drive coverage
and discards, the quantities the validation bands guard.

The exact plane is untouched and remains the default; per-access outcome
recording (the timing model's input) intentionally requires it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coherence.directory import Directory, DirectoryEntry
from repro.common.config import TSEConfig
from repro.common.types import BlockAddress, NodeId
from repro.tse.cmob import CMOB
from repro.tse.layout import SLOT_BYTEORDER, SLOT_BYTES, SLOT_SHIFT
from repro.tse.stream_engine import _lcp, _window_unpacker
from repro.tse.stream_queue import _COMPACT_THRESHOLD, StreamQueue

# Short aliases of the shared slot layout (repro.tse.layout; RL004).
_SLOT = SLOT_BYTES
_SHIFT = SLOT_SHIFT
_ORDER = SLOT_BYTEORDER
_MASK = SLOT_BYTES - 1

__all__ = ["FastTemporalStreamingSystem"]

#: Deep-window amortization factor: candidate streams and refills read
#: ``queue_depth * REFILL_FACTOR`` addresses per CMOB window, trading
#: address-stream volume for ~4-8x fewer refill events.
REFILL_FACTOR = 4

#: What the fused event handlers return: blocks delivered into the SVB and
#: blocks discarded (evicted unconsumed) during the event.
Delivery = Tuple[int, int]


class FastTemporalStreamingSystem:
    """System-wide TSE with fused, batched event handling (fast mode).

    Mirrors the *observable aggregates* of
    :class:`repro.tse.engine.TemporalStreamingSystem` — delivered/discarded
    block counts, SVB residency, stream-length samples, drain leftovers —
    through a different, coarser event decomposition.  The replay loop
    (``TSESimulator._replay_chunk_fast``) is its only intended driver.
    """

    def __init__(self, num_nodes: int, config: TSEConfig, directory: Directory) -> None:
        self.num_nodes = num_nodes
        self.config = config
        self.directory = directory
        self.cmobs = [CMOB(config.cmob_capacity) for _ in range(num_nodes)]
        #: Per-node SVB: address -> (owner queue object, queue id at fetch).
        #: Plain insertion-ordered dicts double as the LRU order, exactly as
        #: the exact plane's ``StreamedValueBuffer`` storage does.
        self._svbs: List[Dict[BlockAddress, Tuple[StreamQueue, int]]] = [
            {} for _ in range(num_nodes)
        ]
        #: Per-node queue slot tables (bounded by ``config.stream_queues``);
        #: slots are permanent — reclamation resets the object in place.
        self._slots: List[List[StreamQueue]] = [[] for _ in range(num_nodes)]
        #: Per-node activity clocks (LRU reclamation time base).
        self._clocks: List[int] = [0] * num_nodes
        #: Hit counts of reclaimed queues (stream-length census, Figure 13).
        self._retired: List[List[int]] = [[] for _ in range(num_nodes)]
        #: System-wide SVB residency counts (write-gate, shared layout with
        #: the exact plane so the replay loop's hoisted probe is identical).
        self._svb_residency: Dict[BlockAddress, int] = {}
        self._next_queue_id = 0
        self._svb_capacity = config.svb_entries
        self._lookahead = config.stream_lookahead
        self._max_queues = config.stream_queues
        self._compared = config.compared_streams
        #: True when the directory keeps exactly two CMOB pointers per block
        #: (the paper default) — enables the specialized pointer-push path.
        self._ptr_cap2 = directory.cmob_pointers_per_block == 2
        #: Realignment probe window (the lookahead), in packed bytes —
        #: mirrors ``StreamQueue.skip_address``'s search bound.
        self._probe_window8 = max(config.stream_lookahead, 1) << _SHIFT
        #: CMOB window depth per stream read.
        self._depth = config.queue_depth * REFILL_FACTOR
        #: Hit-side pump batching: a hit frees one lookahead credit, but the
        #: pump only runs once the full lookahead budget has accumulated, so
        #: the delivery machinery is set up once per ``lookahead`` hits and
        #: the SVB oscillates between drained and fully charged instead of
        #: pinned full — a banded approximation, not observable in coverage
        #: at the declared tolerances (measured: coverage unchanged to 4
        #: decimals on db2/apache, discard within the declared band).
        self._pump_threshold = max(1, config.stream_lookahead)

    # ------------------------------------------------------------------ refills
    def _refill_one(self, node: NodeId, queue: StreamQueue, i: int) -> bool:
        """Refill FIFO ``i`` from its source CMOB; True when data arrived.

        Called only when the FIFO has run dry; the stream *continues* at the
        monotonic source offset, so a live source extends the realized
        stream instead of truncating it.  A source at its recording frontier
        returns nothing now but may produce more later — the next pump
        simply retries, mirroring the exact plane's standing eligibility.
        """
        src = queue._src_nodes[i]
        if src < 0:
            return False
        fifo = queue._fifo_data[i]
        pos = queue._fifo_pos
        if pos[i] > _COMPACT_THRESHOLD:
            del fifo[:pos[i]]
            pos[i] = 0
        nxt = queue._src_next[i]
        count = self.cmobs[src].extend_into(fifo, nxt, self._depth)
        if count:
            queue._src_next[i] = nxt + count
            return True
        return False

    def _refill_empty(self, node: NodeId, queue: StreamQueue) -> bool:
        """Refill every followed FIFO that has run dry; True if any revived."""
        data = queue._fifo_data
        pos = queue._fifo_pos
        selected = queue._selected
        if selected is not None:
            indices: Tuple[int, ...] = (selected,)
        else:
            indices = tuple(range(len(data)))
        revived = False
        for i in indices:
            if pos[i] >= len(data[i]) and self._refill_one(node, queue, i):
                revived = True
        return revived

    # -------------------------------------------------------------------- pump
    def _pump(self, node: NodeId, queue: StreamQueue, svb: Dict) -> Delivery:
        """Fused fetch + deliver: stream the agreed window into the SVB.

        The fast-plane replacement for ``_fetch_from`` + ``deliver_all``:
        pops the agreed prefix of the compared FIFOs (packed-slice equality,
        binary-searched divergence) up to the free lookahead budget,
        refilling dry FIFOs inline, and installs each non-resident block
        into the SVB immediately — LRU eviction, owner crediting and
        residency accounting inlined.  Returns ``(delivered, discarded)``.
        """
        if queue.state_code != 0:
            return 0, 0
        budget = queue.lookahead - queue.in_flight
        if budget <= 0:
            return 0, 0
        data = queue._fifo_data
        pos = queue._fifo_pos
        selected = queue._selected
        capacity = self._svb_capacity
        residency = self._svb_residency
        entry = (queue, queue.queue_id)
        delivered = 0
        discarded = 0
        popped = 0

        if selected is None and len(data) == 2:
            # Dominant comparing shape: two FIFOs, window-at-a-time.
            d0 = data[0]
            d1 = data[1]
            p0 = pos[0]
            p1 = pos[1]
            n0 = len(d0)
            n1 = len(d1)
            diverged = False
            while budget > 0:
                k = (n0 - p0) >> _SHIFT
                k1 = (n1 - p1) >> _SHIFT
                if k1 < k:
                    k = k1
                if k <= 0:
                    # A FIFO ran dry: continue its stream from the source.
                    # Locals are re-synced even on failure — a failed refill
                    # may still have compacted the dry FIFO (cursor moved).
                    pos[0] = p0
                    pos[1] = p1
                    revived = self._refill_empty(node, queue)
                    d0 = data[0]
                    d1 = data[1]
                    p0 = pos[0]
                    p1 = pos[1]
                    n0 = len(d0)
                    n1 = len(d1)
                    if not revived:
                        break
                    continue
                m = k if k < budget else budget
                m8 = m << _SHIFT
                if d0[p0:p0 + m8] == d1[p1:p1 + m8]:
                    agreed = m
                else:
                    agreed = _lcp(d0, p0, d1, p1, m)
                    if agreed == 0:
                        diverged = True
                        break
                window = _window_unpacker(agreed)(d0, p0)
                agreed8 = agreed << _SHIFT
                p0 += agreed8
                p1 += agreed8
                popped += agreed
                for address in window:
                    if address in svb:
                        continue
                    svb[address] = entry
                    residency[address] = residency.get(address, 0) + 1
                    delivered += 1
                    budget -= 1
                if agreed < m:
                    diverged = True
                    break
            if not diverged and budget > 0 and (p0 >= n0) != (p1 >= n1):
                # One source is done for good: the survivor streams alone.
                i = 0 if p0 < n0 else 1
                d = data[i]
                p = p0 if i == 0 else p1
                size = n0 if i == 0 else n1
                while budget > 0 and p < size:
                    take = (size - p) >> _SHIFT
                    if take > budget:
                        take = budget
                    window = _window_unpacker(take)(d, p)
                    p += take << _SHIFT
                    popped += take
                    for address in window:
                        if address in svb:
                            continue
                        svb[address] = entry
                        residency[address] = residency.get(address, 0) + 1
                        delivered += 1
                        budget -= 1
                if i == 0:
                    p0 = p
                else:
                    p1 = p
            pos[0] = p0
            pos[1] = p1
            if popped:
                if p0 >= n0 and p1 >= n1:
                    # Both FIFOs consumed — but "drained" only if no source
                    # can refill them: the budget running out exactly at a
                    # window boundary must not kill a live stream (at the
                    # paper geometry the initial deep window is an exact
                    # multiple of the lookahead, so that alignment is the
                    # common case, not a corner).
                    queue.state_code = 2 if self._followed_exhausted(queue) else 0
                elif p0 >= n0 or p1 >= n1 or d0[p0:p0 + _SLOT] == d1[p1:p1 + _SLOT]:
                    queue.state_code = 0
                else:
                    queue.state_code = 1
                queue._stall_heads = None
                queue.total_fetched += popped
                queue.in_flight += delivered
            if len(svb) > capacity:
                discarded += self._trim_svb(svb, capacity)
            return delivered, discarded

        if selected is not None or len(data) == 1:
            # One followed FIFO (selected after a stall, or a single
            # candidate stream): plain slice walk with refill-on-empty.
            i = selected if selected is not None else 0
            fifo = data[i]
            p = pos[i]
            size = len(fifo)
            while budget > 0:
                take = (size - p) >> _SHIFT
                if take <= 0:
                    pos[i] = p
                    revived = self._refill_one(node, queue, i)
                    fifo = data[i]
                    p = pos[i]
                    size = len(fifo)
                    if not revived:
                        break
                    continue
                if take > budget:
                    take = budget
                window = _window_unpacker(take)(fifo, p)
                p += take << _SHIFT
                popped += take
                for address in window:
                    if address in svb:
                        continue
                    svb[address] = entry
                    residency[address] = residency.get(address, 0) + 1
                    delivered += 1
                    budget -= 1
            pos[i] = p
            if p >= len(data[i]) and self._followed_exhausted(queue):
                queue.state_code = 2
                queue._stall_heads = None
            if popped:
                queue.total_fetched += popped
                queue.in_flight += delivered
            if len(svb) > capacity:
                discarded += self._trim_svb(svb, capacity)
            return delivered, discarded

        # General comparing case (3+ FIFOs, pointer-count ablations): agreed
        # prefix against the first live FIFO, refill-on-empty between rounds.
        nf = len(data)
        refill_tried = False
        while budget > 0:
            live = [i for i in range(nf) if pos[i] < len(data[i])]
            if len(live) < nf and not refill_tried:
                refill_tried = True
                if self._refill_empty(node, queue):
                    continue
            if not live:
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
                    if address in svb:
                        continue
                    svb[address] = entry
                    residency[address] = residency.get(address, 0) + 1
                    delivered += 1
                    budget -= 1
            if agreed < m:
                break
            if agreed == 0:
                break
        if popped:
            queue._recompute_state()
            if queue.state_code == 2 and not self._followed_exhausted(queue):
                queue.state_code = 0  # dry but refillable: stay active
            queue.total_fetched += popped
            queue.in_flight += delivered
        if len(svb) > capacity:
            discarded += self._trim_svb(svb, capacity)
        return delivered, discarded

    def _followed_exhausted(self, queue: StreamQueue) -> bool:
        """True when no followed FIFO's source can produce another address.

        The state machine's DRAINED means "this stream is over"; an empty
        FIFO whose source CMOB has recorded past ``src_next`` is merely
        *dry* — the next pump's refill-on-empty revives it.  One int
        compare per followed FIFO.
        """
        src_nodes = queue._src_nodes
        src_next = queue._src_next
        sel = queue._selected
        indices = (sel,) if sel is not None else range(len(src_nodes))
        cmobs = self.cmobs
        for i in indices:
            src = src_nodes[i]
            if src >= 0 and src_next[i] < cmobs[src]._appended:
                return False
        return True

    def _trim_svb(self, svb: Dict, capacity: int) -> int:
        """Evict the over-capacity oldest SVB entries after a batched pump.

        Deliveries run capacity-unchecked inside ``_pump``; because new
        entries are always the newest in the insertion-ordered dict, one
        trim of the ``len(svb) - capacity`` oldest entries at pump end
        yields the same final LRU state and discard count as per-address
        eviction would.
        """
        residency = self._svb_residency
        over = len(svb) - capacity
        for _ in range(over):
            lru = next(iter(svb))
            vq, vqid = svb.pop(lru)
            if vq.queue_id == vqid and vq.in_flight > 0:
                vq.in_flight -= 1
            c = residency.pop(lru)
            if c > 1:
                residency[lru] = c - 1
        return over

    # ------------------------------------------------------------------ events
    def _miss_scan(
        self, node: NodeId, address: BlockAddress, clock: int,
        slots: List[StreamQueue], svb: Dict,
    ) -> Delivery:
        """Stall resolution / stream realignment against an off-chip miss.

        Fast-plane counterpart of ``StreamEngine.on_offchip_miss``: stall
        heads are checked by packed slice equality (no unpacking, no
        per-scan head slicing — the packed head bytes are cached on the
        queue while it stalls), realignment is one bounded aligned ``find``
        inside ``skip_address`` (window = the lookahead), and matching
        queues pump immediately.
        """
        delivered = 0
        discarded = 0
        packed = None
        probe8 = self._probe_window8
        cmobs = self.cmobs
        for queue in slots:
            state = queue.state_code
            if state == 2:
                # Drained at the recording frontier: the exact plane's
                # half-empty top-up polls every event, so its queues rarely
                # empty while a source is still recording — a long stream
                # survives the frontier.  Refill-on-dry would let it die
                # here and split the realized stream (halving Figure 13's
                # scientific means).  Resume iff this miss *is* a source's
                # recorded continuation — one packed head peek into the
                # source CMOB — exactly a stall resolution against the
                # frontier.  Refilling on anything less (e.g. any frontier
                # advance) resumes out-of-phase streams whose windows the
                # consumer already passed, flooding the SVB with discards.
                if packed is None:
                    packed = address.to_bytes(_SLOT, _ORDER)
                src_nodes = queue._src_nodes
                sel = queue._selected
                indices = (
                    (sel,) if sel is not None
                    else range(len(queue._fifo_data))
                )
                for i in indices:
                    src = src_nodes[i]
                    if src < 0:
                        continue
                    nxt = queue._src_next[i]
                    cmob = cmobs[src]
                    if nxt >= cmob._appended:
                        continue
                    slot = (nxt % cmob.capacity) << _SHIFT
                    if cmob._data[slot:slot + _SLOT] != packed:
                        continue
                    # The processor already has this block: resume past it.
                    queue._src_next[i] = nxt + 1
                    queue._selected = i
                    queue._stall_heads = None
                    queue.last_active = clock
                    if self._refill_one(node, queue, i):
                        queue.state_code = 0
                        d, x = self._pump(node, queue, svb)
                        delivered += d
                        discarded += x
                    break
                continue
            if state == 1:
                # Stalled implies no FIFO is selected: the miss resolves the
                # stall iff it matches one of the disagreeing heads.  Heads
                # cannot change during a stall, so the *packed* head bytes
                # are cached on the queue — the pre-check is one tuple
                # containment test, no slicing.
                if packed is None:
                    packed = address.to_bytes(_SLOT, _ORDER)
                heads = queue._stall_heads
                if heads is None:
                    data = queue._fifo_data
                    pos = queue._fifo_pos
                    if len(data) == 2:
                        p0 = pos[0]
                        p1 = pos[1]
                        heads = (
                            bytes(data[0][p0:p0 + _SLOT]),
                            bytes(data[1][p1:p1 + _SLOT]),
                        )
                    else:
                        heads = tuple(
                            [bytes(data[i][pos[i]:pos[i] + _SLOT])
                             for i in range(len(data))]
                        )
                    queue._stall_heads = heads
                if packed in heads:
                    i = heads.index(packed)
                    data = queue._fifo_data
                    pos = queue._fifo_pos
                    fifo = data[i]
                    p = pos[i] + _SLOT
                    pos[i] = p  # the processor already has this block
                    queue._selected = i
                    queue.state_code = 0 if p < len(fifo) else 2
                    queue._stall_heads = None
                    queue.last_active = clock
                    if p < len(fifo):
                        d, x = self._pump(node, queue, svb)
                        delivered += d
                        discarded += x
            elif state == 0:
                # Realignment: drop the missed address from the front
                # (lookahead) window of the followed FIFOs — the bounded,
                # aligned ``find`` of ``skip_address``, inlined so the
                # packed key is built once per scan, not once per queue.
                if packed is None:
                    packed = address.to_bytes(_SLOT, _ORDER)
                data = queue._fifo_data
                pos = queue._fifo_pos
                sel = queue._selected
                found = False
                if sel is None:
                    for i in range(len(data)):
                        fifo = data[i]
                        p = pos[i]
                        stop = p + probe8
                        at = fifo.find(packed, p, stop)
                        while at >= 0 and (at - p) & _MASK:
                            at = fifo.find(packed, at + 1, stop)
                        if at >= 0:
                            del fifo[at:at + _SLOT]
                            found = True
                else:
                    fifo = data[sel]
                    p = pos[sel]
                    stop = p + probe8
                    at = fifo.find(packed, p, stop)
                    while at >= 0 and (at - p) & _MASK:
                        at = fifo.find(packed, at + 1, stop)
                    if at >= 0:
                        del fifo[at:at + _SLOT]
                        found = True
                if found:
                    queue._recompute_state()
                    queue.last_active = clock
                    if queue.state_code == 0:
                        d, x = self._pump(node, queue, svb)
                        delivered += d
                        discarded += x
        return delivered, discarded

    def consume(self, node: NodeId, address: BlockAddress) -> Delivery:
        """A coherent read miss: the fused consumption event.

        Stall/realign scan, stream location via directory pointers, deep
        candidate-window forwarding, slot allocation, the initial pump, and
        the CMOB record + pointer push — one call, no intermediate batches.
        """
        clock = self._clocks[node] + 1
        self._clocks[node] = clock
        slots = self._slots[node]
        svb = self._svbs[node]

        # (0) The miss may confirm a stalled stream or realign an active one.
        delivered, discarded = self._miss_scan(node, address, clock, slots, svb)

        # (1) Locate candidate streams via the directory's CMOB pointers,
        # building the queue's FIFO columns directly (no intermediate
        # window tuples).
        directory = self.directory
        entries = directory._entries
        entry = entries.get(address)
        fifo_data = None
        if entry is not None:
            pointers = entry.cmob_pointers
            if pointers:
                compared = self._compared
                if len(pointers) > compared:
                    pointers = pointers[:compared]
                cmobs = self.cmobs
                depth = self._depth
                for pnode, poff in pointers:
                    # The stream starts after the head (its data already
                    # came via the baseline coherence reply); one deep
                    # packed read.
                    start = poff + 1
                    window = bytearray()
                    count = cmobs[pnode].extend_into(window, start, depth)
                    if count:
                        if fifo_data is None:
                            fifo_data = [window]
                            src_nodes = [pnode]
                            src_next = [start + count]
                        else:
                            fifo_data.append(window)
                            src_nodes.append(pnode)
                            src_next.append(start + count)

        # (2) Allocate a queue slot and pump the agreed prefix.  Reclaimed
        # slots are rebound field-by-field and the FIFO columns are
        # assigned as fresh lists — cheaper than reset() + appends.
        if fifo_data is not None:
            n_streams = len(fifo_data)
            qid = self._next_queue_id
            self._next_queue_id = qid + 1
            if len(slots) >= self._max_queues:
                victim = slots[0]
                vact = victim.last_active
                for q in slots:
                    if q.last_active < vact:
                        victim = q
                        vact = q.last_active
                self._retired[node].append(victim.total_hits)
                victim.queue_id = qid
                victim.head = address
                victim._selected = None
                victim.in_flight = 0
                victim.total_fetched = 0
                victim.total_hits = 0
                victim._stall_heads = None
                queue = victim
            else:
                queue = StreamQueue(qid, address, self._lookahead)
                slots.append(queue)
            queue.last_active = clock
            queue._fifo_data = fifo_data
            queue._fifo_pos = [0] * n_streams
            queue._src_nodes = src_nodes
            queue._src_next = src_next
            queue._refill_pending = [False] * n_streams
            if n_streams == 1:
                queue.state_code = 0
            elif n_streams == 2:
                queue.state_code = 0 if fifo_data[0][:_SLOT] == fifo_data[1][:_SLOT] else 1
            else:
                queue._recompute_state()
            d, x = self._pump(node, queue, svb)
            delivered += d
            discarded += x

        # (3) Record the miss in the consumer's CMOB and push the pointer
        # home (reusing the directory entry looked up in step 1).
        cmob = self.cmobs[node]
        offset = cmob._appended
        data = cmob._data
        slot = (offset % cmob.capacity) << _SHIFT
        if slot == len(data):
            data += address.to_bytes(_SLOT, _ORDER)
        else:
            data[slot:slot + _SLOT] = address.to_bytes(_SLOT, _ORDER)
        cmob._appended = offset + 1
        if entry is None:
            entry = DirectoryEntry()
            entries[address] = entry
        pointers = entry.cmob_pointers
        if self._ptr_cap2:
            # Specialized two-pointer update (the paper default): the list
            # is 0-2 long and ends up [(node, offset), newest-other].
            if not pointers:
                pointers.append((node, offset))
            else:
                p0 = pointers[0]
                if p0[0] == node:
                    pointers[0] = (node, offset)
                elif len(pointers) == 1:
                    pointers.insert(0, (node, offset))
                else:
                    pointers[1] = p0
                    pointers[0] = (node, offset)
        else:
            for i in range(len(pointers)):
                if pointers[i][0] == node:
                    del pointers[i]
                    break
            pointers.insert(0, (node, offset))
            keep = directory.cmob_pointers_per_block
            if len(pointers) > keep:
                del pointers[keep:]
        return delivered, discarded

    def hit(self, node: NodeId, address: BlockAddress) -> Delivery:
        """An SVB hit: consume the entry, extend the stream, record the hit.

        The caller (the replay loop) has just probed the SVB, so the entry
        is popped unconditionally.  Queue crediting is one identity check on
        the ``(queue, queue_id)`` entry — a reclaimed slot no longer matches.
        """
        clock = self._clocks[node] + 1
        self._clocks[node] = clock
        svb = self._svbs[node]
        queue, qid = svb.pop(address)
        delivered = 0
        discarded = 0
        if queue.queue_id == qid:
            if queue.in_flight > 0:
                queue.in_flight -= 1
            queue.total_hits += 1
            queue.last_active = clock
            if (
                queue.state_code == 0
                and queue.lookahead - queue.in_flight >= self._pump_threshold
            ):
                delivered, discarded = self._pump(node, queue, svb)
        # Every SVB entry carries a residency count >= 1 by construction.
        residency = self._svb_residency
        count = residency.pop(address)
        if count > 1:
            residency[address] = count - 1
        # Record the hit in the CMOB (a hit replaces the miss one-for-one).
        directory = self.directory
        cmob = self.cmobs[node]
        offset = cmob._appended
        data = cmob._data
        slot = (offset % cmob.capacity) << _SHIFT
        if slot == len(data):
            data += address.to_bytes(_SLOT, _ORDER)
        else:
            data[slot:slot + _SLOT] = address.to_bytes(_SLOT, _ORDER)
        cmob._appended = offset + 1
        entries = directory._entries
        entry = entries.get(address)
        if entry is None:
            entry = DirectoryEntry()
            entries[address] = entry
        pointers = entry.cmob_pointers
        if self._ptr_cap2:
            if not pointers:
                pointers.append((node, offset))
            else:
                p0 = pointers[0]
                if p0[0] == node:
                    pointers[0] = (node, offset)
                elif len(pointers) == 1:
                    pointers.insert(0, (node, offset))
                else:
                    pointers[1] = p0
                    pointers[0] = (node, offset)
        else:
            for i in range(len(pointers)):
                if pointers[i][0] == node:
                    del pointers[i]
                    break
            pointers.insert(0, (node, offset))
            keep = directory.cmob_pointers_per_block
            if len(pointers) > keep:
                del pointers[keep:]
        return delivered, discarded

    def invalidate(self, address: BlockAddress) -> int:
        """A write invalidated matching SVB entries system-wide.

        The replay loop pre-gates on the residency map, so this only runs
        when at least one SVB holds the block.  Returns the number of
        entries invalidated (each is a discard).
        """
        invalidated = 0
        residency = self._svb_residency
        for svb in self._svbs:
            entry = svb.pop(address, None)
            if entry is not None:
                queue, qid = entry
                if queue.queue_id == qid and queue.in_flight > 0:
                    queue.in_flight -= 1
                invalidated += 1
                count = residency.pop(address)
                if count > 1:
                    residency[address] = count - 1
        return invalidated

    # -------------------------------------------------------------- end of run
    def drain(self) -> Dict[NodeId, int]:
        """Flush every SVB; per-node counts of unconsumed (discarded) blocks."""
        leftovers: Dict[NodeId, int] = {}
        for node, svb in enumerate(self._svbs):
            leftovers[node] = len(svb)
            svb.clear()
        self._svb_residency.clear()
        return leftovers

    def stream_length_samples(self, node: NodeId) -> List[int]:
        """Realized stream lengths (hits per queue), retired and live."""
        return self._retired[node] + [q.total_hits for q in self._slots[node]]
