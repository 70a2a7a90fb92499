"""TSE system glue: per-node controllers plus the record / locate / forward protocol.

``NodeTSE`` bundles the per-node hardware the paper adds (CMOB + stream
engine + SVB).  ``TemporalStreamingSystem`` implements the three system-level
capabilities of Section 2:

1. *Recording the order* — consumptions (and useful streamed blocks) are
   appended to the consuming node's CMOB and the new CMOB pointer is sent to
   the block's home directory (Figure 3).
2. *Finding and forwarding streams* — on a consumption, the directory's CMOB
   pointers identify recent consumers; each source node reads the subsequent
   addresses from its CMOB and forwards the address stream to the requester
   (Figure 4).
3. *Streaming data* — the requesting node's stream engine compares the
   candidate streams and retrieves blocks into its SVB with bounded
   lookahead, matching the consumption rate (Section 3.3).

The compare/refill plane is packed end to end: candidate streams are CMOB
window arrays forwarded as-is, fetch requests travel as per-queue batches
(:data:`~repro.tse.stream_engine.FetchBatch`) flattened in order by
:meth:`TemporalStreamingSystem.deliver_all`, and the refill service appends
CMOB windows straight onto the stream-queue FIFOs (one
:meth:`~repro.tse.cmob.CMOB.extend_into` per refill instead of per-address
reads).  Refills are event-driven: the engine's *eligibility* set holds only
queues with a FIFO actually at or below the refill threshold, so the common
consumption pays a single empty-set check, and a queue whose low FIFOs'
sources have nothing new is *parked* out of that set until its source CMOB
grows or something else changes what a refill would do (see
:meth:`TemporalStreamingSystem._service_refills`).  The refills it skips
meanwhile are still counted, in ``refills_serviced`` and as
``STREAM_REQUEST`` messages, so every counter and traffic byte is what
serving them at every event would give.

Every step runs inline on the replay's hot path: the system layer works on
the engines' queues, FIFOs and SVB dicts directly, and both recording events
(a consumption and an SVB hit) share one :meth:`TemporalStreamingSystem._record`.
Messages are counted only when a traffic accountant is attached; each
sink site is one ``emit`` call behind a None check, and the common
accounting-free path pays only that check.  Counters are plain ints
published into the ``StatsRegistry`` lazily.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import (
    CMOB_POINTER_UPDATE,
    STREAM_REQUEST,
    STREAMED_DATA_REPLY,
    STREAMED_DATA_REQUEST,
)
from repro.common.config import TSEConfig
from repro.common.stats import StatsRegistry, publish_counters
from repro.common.types import BlockAddress, NodeId
from repro.interconnect.network import TrafficAccountant
from repro.tse.cmob import CMOB
from repro.tse.layout import SLOT_BYTEORDER, SLOT_BYTES, SLOT_SHIFT
from repro.tse.stream_engine import CandidateStream, FetchBatch, StreamEngine
from repro.tse.stream_queue import _COMPACT_THRESHOLD, StreamQueue

# Short aliases of the shared slot layout (repro.tse.layout; RL004).
_SLOT = SLOT_BYTES
_SHIFT = SLOT_SHIFT
_ORDER = SLOT_BYTEORDER

#: What :meth:`TemporalStreamingSystem.on_consumption` returns: the id of the
#: stream queue allocated for the consumption (-1 when no stream was found)
#: and the ``(queue_id, [addresses])`` fetch batches produced in response.
StreamDelivery = Tuple[int, List[FetchBatch]]


class NodeTSE:
    """Per-node TSE hardware: the CMOB and the stream engine (with its SVB)."""

    __slots__ = ("config", "node_id", "cmob", "engine")

    def __init__(self, config: TSEConfig, node_id: NodeId) -> None:
        self.config = config
        self.node_id = node_id
        self.cmob = CMOB(config.cmob_capacity)
        self.engine = StreamEngine(config)


class TemporalStreamingSystem:
    """System-wide TSE: all node controllers plus the directory extension.

    The class is *functional*: it decides which blocks get streamed where and
    counts the corresponding messages into ``traffic`` (when given), but
    charges no latency — the timing model layers latency on top, and the
    trace-driven simulator uses it directly for coverage/discard studies.
    """

    def __init__(
        self,
        num_nodes: int,
        config: TSEConfig,
        directory: Directory,
        traffic: Optional[TrafficAccountant] = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.config = config
        self.directory = directory
        self.nodes = [NodeTSE(config, node_id=i) for i in range(num_nodes)]
        #: Direct CMOB references (one attribute hop saved per stream read).
        self._cmobs = [node.cmob for node in self.nodes]
        self._stats = StatsRegistry(prefix="tse")
        self._traffic = traffic
        #: System-wide count of SVB entries per block address, maintained by
        #: the system-level entry points (deliver_all / on_svb_hit /
        #: on_write / drain) so writes to blocks no SVB holds — the vast
        #: majority — skip the per-node invalidate loop entirely.
        self._svb_residency: Dict[BlockAddress, int] = {}
        #: Parked queues waiting on each source node's CMOB to grow, mapped
        #: to their consumer engine's refill-dirty set (one entry per queue).
        self._watches: List[Dict[StreamQueue, set]] = [{} for _ in range(num_nodes)]
        # Hot-path activity counters, published lazily via ``stats``.
        self._n_cmob_appends = 0
        self._n_streams_forwarded = 0
        self._n_no_stream_found = 0
        self._n_svb_hits = 0
        self._n_svb_invalidations = 0
        self._n_refills_serviced = 0
        self._n_blocks_streamed = 0

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry, synchronized with the plain-int counters on read."""
        self._count_all_parked()
        return publish_counters(self._stats, {
            "cmob_appends": self._n_cmob_appends,
            "streams_forwarded": self._n_streams_forwarded,
            "no_stream_found": self._n_no_stream_found,
            "svb_hits": self._n_svb_hits,
            "svb_invalidations": self._n_svb_invalidations,
            "refills_serviced": self._n_refills_serviced,
            "blocks_streamed": self._n_blocks_streamed,
        })

    # ------------------------------------------------------------------ helpers
    def _residency_drop(self, address: BlockAddress) -> None:
        residency = self._svb_residency
        count = residency.get(address, 0)
        if count <= 1:
            residency.pop(address, None)
        else:
            residency[address] = count - 1

    def _record(
        self, node_id: NodeId, address: BlockAddress, dir_entry: Optional[DirectoryEntry]
    ) -> None:
        """Record a consumption or SVB hit in the order (Figure 3, steps 3-4).

        Appends ``address`` to ``node_id``'s CMOB and pushes the new CMOB
        pointer to the block's home directory: the node's older pointer is
        dropped, the new one goes first, and at most
        ``cmob_pointers_per_block`` are kept.  ``dir_entry`` is the block's
        directory entry when the caller already looked it up, or None when
        the block has none yet.
        """
        watch = self._watches[node_id]
        if watch:
            # The CMOB grows: every queue parked on it can read again.
            for queue, dirty in watch.items():
                dirty.add(queue.queue_id)
            watch.clear()
        cmob = self._cmobs[node_id]
        offset = cmob._appended
        data = cmob._data
        slot = (offset % cmob.capacity) << _SHIFT
        if slot == len(data):
            data += address.to_bytes(_SLOT, _ORDER)
        else:
            data[slot:slot + _SLOT] = address.to_bytes(_SLOT, _ORDER)
        cmob._appended = offset + 1
        directory = self.directory
        if dir_entry is None:
            dir_entry = DirectoryEntry()
            directory._entries[address] = dir_entry
        pointers = dir_entry.cmob_pointers
        for i in range(len(pointers)):
            if pointers[i][0] == node_id:
                del pointers[i]
                break
        pointers.insert(0, (node_id, offset))
        keep = directory.cmob_pointers_per_block
        if len(pointers) > keep:
            del pointers[keep:]
        if self._traffic is not None:
            self._traffic.emit(CMOB_POINTER_UPDATE, node_id, directory.home_of(address))
        self._n_cmob_appends += 1

    # ------------------------------------------------------------ consumptions
    def on_consumption(self, node_id: NodeId, address: BlockAddress) -> StreamDelivery:
        """A coherent read miss (consumption) occurred at ``node_id``.

        Performs, in order: stall resolution against the miss address,
        stream location through the directory's CMOB pointers, stream
        forwarding from the source CMOBs (one packed window read per
        pointer), stream-queue allocation and the initial block fetches,
        and finally the miss's own CMOB append and pointer update
        (:meth:`_record`).

        Returns ``(queue_id, fetch_batches)``.
        """
        engine = self.nodes[node_id].engine
        traffic = self._traffic
        directory = self.directory
        queue_id = -1

        # (0) The miss may confirm a stalled stream or realign an active one.
        fetches = engine.on_offchip_miss(address)

        # (1) Locate candidate streams via the directory (Figure 4, step 2),
        # reading the entry's pointer list in place.
        compared = self.config.compared_streams
        dir_entry = directory._entries.get(address)
        if dir_entry is None:
            pointers = ()
        else:
            pointers = dir_entry.cmob_pointers
            if len(pointers) > compared:
                # Only slice when the directory retains more pointers than
                # the engine compares (pointer-count ablations).
                pointers = pointers[:compared]
        streams: List[CandidateStream] = []
        cmobs = self._cmobs
        if pointers:
            home = directory.home_of(address) if traffic is not None else -1
            queue_depth = self.config.queue_depth
            for pointer_node, pointer_offset in pointers:
                # The stream starts *after* the head (its data already came
                # via the baseline coherence reply).  The window is read
                # straight into what becomes the FIFO storage — one packed
                # copy, no per-address reads.
                start = pointer_offset + 1
                window = bytearray()
                count = cmobs[pointer_node].extend_into(window, start, queue_depth)
                if traffic is not None:
                    traffic.emit(STREAM_REQUEST, home, pointer_node)
                if not count:
                    continue
                if traffic is not None:
                    traffic.emit_addresses(pointer_node, node_id, count)
                streams.append((pointer_node, start + count, window))
                self._n_streams_forwarded += 1

        # (2) Hand the streams to the consumer's engine (Figure 4, step 4):
        # allocate a queue (reclaiming the least recently active one when
        # all are busy, Section 5.3), bulk-populate its FIFOs with the
        # packed windows, derive the state once, and fetch the agreed
        # prefix.
        if streams:
            engine._activity_clock += 1
            queues = engine._queues
            engine_config = engine.config
            queue = None
            if len(queues) >= engine_config.stream_queues:
                victim_id = -1
                victim_active = -1
                for qid, victim in queues.items():
                    active = victim.last_active
                    if victim_id < 0 or active < victim_active:
                        victim_id = qid
                        victim_active = active
                queue = queues.pop(victim_id)
                if queue._parked_at >= 0:
                    self._unpark(node_id, queue, cmobs[node_id]._appended)
                engine.retired_queue_hits.append(queue.total_hits)
                engine._scan_queues.pop(victim_id, None)
                engine._refill_dirty.discard(victim_id)
            queue_id = engine._next_queue_id
            if queue is not None:
                queue.reset(queue_id, address, engine_config.stream_lookahead)
            else:
                queue = StreamQueue(queue_id, address, engine_config.stream_lookahead)
            queue.last_active = engine._activity_clock
            queues[queue_id] = queue
            engine._scan_queues[queue_id] = queue
            engine._next_queue_id = queue_id + 1
            fifo_data = queue._fifo_data
            fifo_pos = queue._fifo_pos
            src_nodes = queue._src_nodes
            src_next = queue._src_next
            refill_pending = queue._refill_pending
            for source_node, next_offset, window in streams:
                fifo_data.append(window)
                fifo_pos.append(0)
                src_nodes.append(source_node)
                src_next.append(next_offset)
                refill_pending.append(False)
            # Fresh-queue state, derived inline: every appended window is
            # non-empty, so the queue is ACTIVE unless two packed heads
            # disagree.
            n_streams = len(streams)
            if n_streams == 1:
                queue.state_code = 0  # STATE_ACTIVE
            elif n_streams == 2:
                queue.state_code = (
                    0 if fifo_data[0][:_SLOT] == fifo_data[1][:_SLOT] else 1  # ACTIVE/STALLED
                )
            else:
                queue._recompute_state()
            batch = engine._fetch_from(queue)
            if batch:
                fetches.append((queue_id, batch))
            # A short window can leave a fresh FIFO at or below the refill
            # threshold even before (or without) any pops — checked inline
            # for the 1/2-FIFO shapes (a fresh queue has no refills pending
            # and real sources throughout).
            threshold8 = engine._refill_threshold8
            if n_streams <= 2:
                if (
                    len(fifo_data[0]) - fifo_pos[0] <= threshold8
                    or (n_streams == 2 and len(fifo_data[1]) - fifo_pos[1] <= threshold8)
                ):
                    engine._refill_dirty.add(queue_id)
            elif queue.needs_refill(engine._refill_threshold):
                engine._refill_dirty.add(queue_id)
        else:
            self._n_no_stream_found += 1

        # (3) Record the miss (Figure 3, steps 3-4), reusing the directory
        # entry looked up in step 1.
        self._record(node_id, address, dir_entry)

        # (4) Service any refills that the new fetches made necessary.
        if engine._refill_dirty:
            refill_fetches = self._service_refills(node_id)
            if refill_fetches:
                fetches.extend(refill_fetches)
        return queue_id, fetches

    # ----------------------------------------------------------------- SVB hits
    def on_svb_hit(self, node_id: NodeId, address: BlockAddress):
        """The processor's access hit in the SVB.

        The entry moves to the L1, the stream engine retrieves a subsequent
        block from the same queue, and the hit is recorded in the CMOB
        because it replaces the coherent read miss that would have occurred
        without TSE (Section 3.1).

        Returns ``(entry, follow_on_fetch_batches)``.
        """
        engine = self.nodes[node_id].engine
        # Consume the entry, credit its queue and extend the stream, inline:
        # the hit path runs once per eliminated miss.
        clock = engine._activity_clock + 1
        engine._activity_clock = clock
        entry = engine.svb._entries.pop(address, None)
        if entry is None:
            return None, []
        queue = engine._queues.get(entry[1])
        fetches: List[FetchBatch] = []
        if queue is not None:
            if queue.in_flight > 0:
                queue.in_flight -= 1
            queue.total_hits += 1
            queue.last_active = clock
            batch = engine._fetch_from(queue)
            if batch:
                fetches.append((queue.queue_id, batch))
        # Inline residency drop (one SVB entry for this address just left).
        residency = self._svb_residency
        count = residency.get(address, 0)
        if count <= 1:
            residency.pop(address, None)
        else:
            residency[address] = count - 1
        self._n_svb_hits += 1
        # A hit replaces the miss one-for-one, so it is recorded like one.
        self._record(node_id, address, self.directory._entries.get(address))
        if engine._refill_dirty:
            refill_fetches = self._service_refills(node_id)
            if refill_fetches:
                fetches.extend(refill_fetches)
        return entry, fetches

    # ------------------------------------------------------------------ writes
    def on_write(self, writer: NodeId, address: BlockAddress) -> int:
        """A write by any node invalidates matching SVB entries system-wide.

        Returns the number of entries invalidated (each is a discard).
        """
        if address not in self._svb_residency:
            return 0
        invalidated = 0
        for node in self.nodes:
            engine = node.engine
            # Cheap membership probe before the full invalidate path.
            if address in engine.svb:
                if engine.on_invalidate(address) is not None:
                    invalidated += 1
                    self._residency_drop(address)
        if invalidated:
            self._n_svb_invalidations += invalidated
        return invalidated

    # ----------------------------------------------------------------- refills
    def _service_refills(self, node_id: NodeId) -> List[FetchBatch]:
        """Serve pending CMOB refill requests for a node's stream queues.

        Collection and servicing are fused per queue: every FIFO's
        eligibility (live, at or below the refill threshold, no request
        outstanding) is snapshotted *before* any of the queue's refills are
        serviced — servicing triggers ``_fetch_from``, which pops from all
        of a comparing queue's FIFOs and could otherwise make a later FIFO
        eligible one pass early.  Queues are visited in allocation order,
        and servicing one queue cannot touch another queue's FIFOs, so the
        fused pass produces the identical refill and fetch order the
        collect-then-serve pipeline had.  Each refill is one batched CMOB
        window append (``extend_into``) straight onto the FIFO — no
        per-address reads, no intermediate request plumbing.  The dirty set
        arrives pre-filtered: the engine only queues *eligible* queues, so
        this runs exactly when there is work.

        Refills are event-driven.  A served queue that stays low would be
        served again at every later event of the node, and when none of its
        low FIFOs' sources has anything past the FIFO's next offset (idle,
        or wrapped past it for good) each such service reads nothing and
        fetches nothing.  Such a queue is *parked* instead: it leaves the
        dirty set, remembers the node's CMOB append count (one append per
        consumption or SVB hit, so the count of service points) and watches
        its idle sources.  It comes back to the dirty set when a watched
        CMOB appends (:meth:`_record`), when it loses an SVB block, when
        the miss scan resolves its stall or skips one of its addresses, or
        when a hit pops from it.  Its next visit here, a reclaim,
        :meth:`drain` and a ``stats`` read count each skipped service's
        refills, in ``refills_serviced`` and as ``STREAM_REQUEST`` messages,
        so every counter stays what serving them would have made it.
        """
        engine = self.nodes[node_id].engine
        dirty = engine._refill_dirty
        if not dirty:
            return []
        fetches: List[FetchBatch] = []
        traffic = self._traffic
        cmobs = self._cmobs
        config = self.config
        threshold = config.refill_threshold
        threshold8 = threshold << _SHIFT
        depth = config.queue_depth
        queues = engine._queues
        # This event's own append has happened: the service point it
        # stands for is this one, not a skipped one.
        clock = cmobs[node_id]._appended
        if len(dirty) == 1:
            # The common shape: exactly the queue the event touched.
            order = tuple(dirty)
        else:
            order = sorted(dirty)
        dirty.clear()
        fetch_from = engine._fetch_from
        for queue_id in order:
            queue = queues.get(queue_id)
            if queue is None:
                continue
            if queue._parked_at >= 0:
                self._unpark(node_id, queue, clock - 1)
            if queue.state_code == 2:  # STATE_DRAINED
                continue
            selected = queue._selected
            if selected is not None:
                indices = (selected,)
            else:
                indices = tuple(range(len(queue._fifo_data)))
            pending = queue._refill_pending
            src_nodes = queue._src_nodes
            src_next = queue._src_next
            data = queue._fifo_data
            pos = queue._fifo_pos
            # Collect phase: snapshot this queue's eligible FIFOs.
            eligible = None
            for i in indices:
                if pending[i]:
                    continue
                source_node = src_nodes[i]
                if source_node < 0:
                    continue
                if len(data[i]) - pos[i] > threshold8:
                    continue
                pending[i] = True
                if eligible is None:
                    eligible = [(i, source_node, src_next[i])]
                else:
                    eligible.append((i, source_node, src_next[i]))
            if eligible is None:
                continue
            # Serve phase: one batched CMOB window append per refill.
            for i, source_node, next_offset in eligible:
                fifo = data[i]
                p = pos[i]
                if p > _COMPACT_THRESHOLD:
                    # Shed the consumed prefix before growing the array.
                    del fifo[:p]
                    p = 0
                    pos[i] = 0
                was_live = p < len(fifo)
                count = cmobs[source_node].extend_into(fifo, next_offset, depth)
                if traffic is not None:
                    traffic.emit(STREAM_REQUEST, node_id, source_node)
                    if count:
                        traffic.emit_addresses(source_node, node_id, count)
                pending[i] = False
                src_next[i] = next_offset + count
                if not was_live and count:
                    queue._recompute_state()
                # ``_fetch_from`` gated inline: right after an allocation the
                # lookahead is typically exhausted, so most refills have no
                # budget and the call would be a no-op.
                if queue.state_code == 0 and queue.in_flight < queue.lookahead:
                    batch = fetch_from(queue)
                    if batch:
                        fetches.append((queue_id, batch))
                # A short window can leave this FIFO still at or below the
                # threshold: re-queue it for the next event (its pending
                # flag was just cleared above).  Other FIFOs can only have
                # become eligible through ``fetch_from``'s pops, which
                # queue the refill themselves.
                if len(fifo) - pos[i] <= threshold8:
                    dirty.add(queue_id)
                self._n_refills_serviced += 1
            if queue_id not in dirty or queue.state_code == 2:
                continue
            # Re-queued: park it when the next service would read nothing.
            # ``fetch_from`` just ran to its lookahead or the end of the
            # agreed stream, so only a source with new entries can change
            # what that service does.
            sources = []
            idle = []
            for i in indices:
                source_node = src_nodes[i]
                if source_node < 0 or len(data[i]) - pos[i] > threshold8:
                    continue
                source = cmobs[source_node]
                end = source._appended
                if src_next[i] < end:
                    if src_next[i] >= end - source.capacity:
                        break  # this source has new entries: keep serving
                    # Wrapped past the next offset: reads nothing forever.
                else:
                    idle.append(source_node)
                sources.append(source_node)
            else:
                dirty.discard(queue_id)
                queue._parked_at = clock
                queue._parked_sources = tuple(sources)
                watches = self._watches
                for source_node in idle:
                    watches[source_node][queue] = dirty
        return fetches

    def _count_parked(self, node_id: NodeId, queue: StreamQueue, clock: int) -> None:
        """Count the refills ``queue`` skipped while parked, up to ``clock``.

        ``clock`` is the consumer's CMOB append count after the last skipped
        service point; each one served every FIFO in ``_parked_sources``.
        The queue stays parked, counted up to ``clock``.
        """
        skipped = clock - queue._parked_at
        if skipped > 0:
            sources = queue._parked_sources
            self._n_refills_serviced += skipped * len(sources)
            traffic = self._traffic
            if traffic is not None:
                for source_node in sources:
                    for _ in range(skipped):
                        traffic.emit(STREAM_REQUEST, node_id, source_node)
        queue._parked_at = clock

    def _unpark(self, node_id: NodeId, queue: StreamQueue, clock: int) -> None:
        """Count a parked queue's skipped refills and stop its watches."""
        self._count_parked(node_id, queue, clock)
        queue._parked_at = -1
        watches = self._watches
        for source_node in queue._parked_sources:
            watches[source_node].pop(queue, None)

    def _count_all_parked(self) -> None:
        """Count every parked queue's skipped refills so far (between events)."""
        for node in self.nodes:
            clock = node.cmob._appended
            for queue in node.engine._queues.values():
                if queue._parked_at >= 0:
                    self._count_parked(node.node_id, queue, clock)

    # ----------------------------------------------------------- data streaming
    def deliver_all(
        self,
        node_id: NodeId,
        batches: List[FetchBatch],
        fill_time: float,
        last_writer: Dict[BlockAddress, NodeId],
    ) -> Tuple[int, int]:
        """Stream the fetched block batches into ``node_id``'s SVB.

        One call per replay event, consuming the engine's per-queue
        ``(queue_id, [addresses])`` batches in order, with the SVB fill, LRU
        eviction, residency bookkeeping and victim notification inlined.
        Re-delivering a resident block refreshes its LRU position and queue
        binding; a fill into a full SVB evicts the LRU entry, which is a
        discard.  With traffic accounting on, each delivered block also
        counts a streamed-data request to its home and a reply from its
        producer: ``last_writer`` maps each block written so far to its
        last writer, and a block it does not hold was never written, so the
        home replies.  Returns ``(delivered, discarded)``.
        """
        engine = self.nodes[node_id].engine
        svb = engine.svb
        entries = svb._entries
        capacity = svb.capacity
        residency = self._svb_residency
        queues = engine._queues
        traffic = self._traffic
        delivered = 0
        discarded = 0
        for queue_id, addresses in batches:
            delivered += len(addresses)
            if traffic is not None:
                self._count_deliveries(traffic, node_id, addresses, last_writer)
            for address in addresses:
                if address in entries:
                    # Refresh: new LRU position and queue binding, no victim,
                    # no residency change (plain dicts keep insertion order).
                    del entries[address]
                    entries[address] = (address, queue_id, fill_time)
                    continue
                if len(entries) >= capacity:
                    lru_address = next(iter(entries))
                    victim = entries.pop(lru_address)
                    owner = queues.get(victim[1])
                    if owner is not None:
                        owner.on_block_lost()
                        if owner._parked_at >= 0:
                            # A freed lookahead slot: the next service may fetch.
                            engine._refill_dirty.add(owner.queue_id)
                    victim_address = victim[0]
                    count = residency.get(victim_address, 0)
                    if count <= 1:
                        residency.pop(victim_address, None)
                    else:
                        residency[victim_address] = count - 1
                    discarded += 1
                entries[address] = (address, queue_id, fill_time)
                residency[address] = residency.get(address, 0) + 1
        self._n_blocks_streamed += delivered
        return delivered, discarded

    def _count_deliveries(
        self,
        traffic: TrafficAccountant,
        node_id: NodeId,
        addresses: List[BlockAddress],
        last_writer: Dict[BlockAddress, NodeId],
    ) -> None:
        """Count the streamed-data request/reply pair of each delivered block."""
        home_of = self.directory.home_of
        emit = traffic.emit
        for address in addresses:
            home = home_of(address)
            emit(STREAMED_DATA_REQUEST, node_id, home)
            emit(STREAMED_DATA_REPLY, last_writer.get(address, home), node_id)

    # -------------------------------------------------------------- end of run
    def drain(self) -> Dict[NodeId, int]:
        """Flush every SVB; returns per-node counts of unconsumed (discarded) blocks.

        Also counts the refills parked queues skipped so far, so the
        traffic accountant holds every ``STREAM_REQUEST`` of the run.
        """
        self._count_all_parked()
        leftovers: Dict[NodeId, int] = {}
        for node in self.nodes:
            leftovers[node.node_id] = len(node.engine.drain())
        self._svb_residency.clear()
        return leftovers
