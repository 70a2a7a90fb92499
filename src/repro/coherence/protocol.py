"""Functional directory coherence protocol.

The protocol processes the globally interleaved access trace one access at a
time and classifies each read as a hit, cold miss, or coherent read miss.
Coherent read misses that are not spin accesses are the *consumptions* that
the Temporal Streaming Engine targets (Section 5).

There is one cache model: infinite caches.  Every node retains every block
it has referenced until another node's write invalidates it, so the only
read misses are cold misses and coherence misses — exactly the misses the
paper's trace studies count ("their detrimental effect is aggravated as
cache sizes increase").

State is one ``(version, last_writer, held_version)`` triple per block: the
version is incremented on each write, and ``held_version`` maps every node
holding a copy to the version it holds — always the current one, because a
write invalidates every other copy.  A read miss is

* a **cold miss** when the block has never been written by a remote node;
* a **coherent read miss** when the block's current version was produced by
  a different node than the reader and the reader does not hold it.

:meth:`CoherenceProtocol.read_ints` and :meth:`~CoherenceProtocol.write_ints`
are the whole state machine, and :func:`transaction_messages` is the
message table: it emits a transaction's baseline messages, derived from the
same block state, for traffic accounting.

A read served from a TSE stream buffer or a prefetch buffer leaves the
reader holding the current version — the copy the base system's demand
miss would have installed — so the block state, and with it the base
system's classification of every access, does not depend on TSE or on any
prefetcher.  :func:`coherence_codes` therefore classifies a trace once,
into one code column per chunk, and :func:`trace_codes` memoizes the
columns on the trace for every replay, the timing model's base labels, the
prefetcher harness and :func:`trace_consumptions` (Figure 6's per-node
consumption orders).

The base system's messages are a property of the trace for the same
reason.  Given a message sink, the classification pass feeds it every
transaction's messages, and :func:`trace_traffic` memoizes the count table
one such pass produces.  A traffic-accounted replay starts from that table
and takes back only the messages of the coherent reads TSE served from its
stream buffers (:func:`coherent_read_messages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.coherence.messages import (
    DATA_REPLY,
    DATA_REPLY_COHERENT,
    FORWARD_REQUEST,
    INVALIDATE,
    INVALIDATE_ACK,
    READ_EXCLUSIVE_REQUEST,
    READ_REQUEST,
    UPGRADE_REQUEST,
)
from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.types import (
    TYPE_IS_WRITE,
    TYPE_SPIN_READ,
    BlockAddress,
    Consumption,
    NodeId,
)

#: Small-int read-classification codes returned by
#: :meth:`CoherenceProtocol.read_ints`.
READ_HIT = 0
READ_COHERENT = 1
READ_SPIN_COHERENT = 2
READ_COLD = 3
#: The one write code of a :func:`coherence_codes` column.
WRITE = 4


@dataclass(slots=True)
class _BlockState:
    """Protocol-internal per-block bookkeeping."""

    version: int = 0
    last_writer: Optional[NodeId] = None
    #: Version of the block each holder has observed (always the current
    #: version).  Missing key == no copy.
    held_version: Dict[NodeId, int] = field(default_factory=dict)


class CoherenceProtocol:
    """Functional directory protocol with miss classification."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self._blocks: Dict[BlockAddress, _BlockState] = {}

    # ------------------------------------------------------------ state machine
    #
    # ``read_ints`` / ``write_ints`` take raw (node, block) ints, so the
    # classifier calls them with no per-access allocation.
    def read_ints(self, node: NodeId, address: BlockAddress, is_spin: bool) -> int:
        """Classify (and apply) one read; returns a ``READ_*`` code."""
        block = self._blocks.get(address)
        if block is None:
            self._blocks[address] = block = _BlockState()
        version = block.version
        held = block.held_version
        if held.get(node) == version:
            return READ_HIT
        held[node] = version
        # version > 0 implies last_writer is set (only writes bump versions).
        if version > 0 and block.last_writer != node:
            # The version being read was produced by another node.
            return READ_SPIN_COHERENT if is_spin else READ_COHERENT
        return READ_COLD

    def write_ints(self, node: NodeId, address: BlockAddress) -> bool:
        """Apply one write (or atomic); returns True on a write hit.

        The writer ends up holding the sole copy of the new version: every
        other copy is invalidated.
        """
        block = self._blocks.get(address)
        if block is None:
            self._blocks[address] = block = _BlockState()
        held = block.held_version
        hit = node in held
        version = block.version + 1
        block.version = version
        block.last_writer = node
        held.clear()
        held[node] = version
        return hit


def coherence_codes(
    protocol: CoherenceProtocol,
    chunks: Iterable[TraceChunk],
    sink: Optional[Callable[[int, NodeId, NodeId], None]] = None,
) -> Iterator[bytes]:
    """Classify chunks in trace order; yield each chunk's code column.

    A column holds one code per access: the ``READ_*`` code
    :meth:`CoherenceProtocol.read_ints` returns for a read, :data:`WRITE`
    for a write.  ``protocol`` carries the block state from one chunk to
    the next and ends in the trace's final state.  With a ``sink``, every
    transaction's baseline messages go to ``sink(kind, src, dst)`` through
    :func:`transaction_messages`, each chunk's before its column is yielded.
    """
    read_ints = protocol.read_ints
    write_ints = protocol.write_ints
    messages_of = transaction_messages
    is_write = TYPE_IS_WRITE
    spin_read = TYPE_SPIN_READ
    for chunk in chunks:
        codes = bytearray()
        label = codes.append
        for node, block, type_code in zip(
            chunk.nodes.tolist(), chunk.blocks.tolist(), chunk.types.tolist()
        ):
            if is_write[type_code]:
                if sink is not None:
                    messages_of(protocol, node, block, sink)
                write_ints(node, block)
                label(WRITE)
            else:
                code = read_ints(node, block, type_code == spin_read)
                if sink is not None:
                    messages_of(protocol, node, block, sink, code)
                label(code)
        yield bytes(codes)


def trace_codes(trace: ChunkedTrace) -> List[bytes]:
    """A trace's code columns, one per chunk, classified once.

    Memoized in ``trace.memo``, so a trace that grows after a
    classification is classified afresh.
    """
    codes = trace.memo.get("coherence_codes")
    if codes is None:
        protocol = CoherenceProtocol(trace.num_nodes)
        codes = trace.memo["coherence_codes"] = list(
            coherence_codes(protocol, trace.chunks())
        )
    return codes


def trace_traffic(trace: ChunkedTrace) -> List[int]:
    """The base system's message counts over a whole trace, counted once.

    One classification pass feeds every transaction's messages
    (:func:`transaction_messages`) into a
    :func:`~repro.interconnect.network.count_table` for
    ``trace.num_nodes`` nodes.  Memoized in ``trace.memo``, like
    :func:`trace_codes`; when the trace has no code columns yet, the same
    pass memoizes them too, so a cold traffic-accounted replay steps the
    state machine once.
    """
    # Imported here: repro.interconnect.network imports this package.
    from repro.interconnect.network import count_table

    counts = trace.memo.get("traffic_counts")
    if counts is None:
        counts, count = count_table(trace.num_nodes)
        columns = list(coherence_codes(
            CoherenceProtocol(trace.num_nodes), trace.chunks(), count
        ))
        trace.memo.setdefault("coherence_codes", columns)
        trace.memo["traffic_counts"] = counts
    return counts


def trace_consumptions(trace: ChunkedTrace) -> List[List[Consumption]]:
    """Split a trace's consumptions into per-node sequences.

    Walks the trace's memoized code columns (:func:`trace_codes`): every
    ``READ_COHERENT`` code is a consumption, and its producer is the block's
    last writer, the node of the block's most recent ``WRITE`` code.  Each
    node's list is in the node's program order (which, because the trace is
    globally interleaved, is also its trace order); the per-node ``index``
    matches the CMOB slot the consumption would occupy.
    """
    per_node: List[List[Consumption]] = [[] for _ in range(trace.num_nodes)]
    last_writer: Dict[BlockAddress, NodeId] = {}
    global_index = 0
    for chunk, codes in zip(trace.chunks(), trace_codes(trace)):
        for code, node, block, timestamp in zip(
            codes, chunk.nodes.tolist(), chunk.blocks.tolist(), chunk.timestamps.tolist()
        ):
            if code == WRITE:
                last_writer[block] = node
            elif code == READ_COHERENT:
                consumptions = per_node[node]
                consumptions.append(Consumption(
                    node, block, len(consumptions), global_index, timestamp,
                    last_writer[block],
                ))
            global_index += 1
    return per_node


def transaction_messages(
    protocol: CoherenceProtocol,
    node: NodeId,
    address: BlockAddress,
    emit: Callable[[int, NodeId, NodeId], None],
    read_code: Optional[int] = None,
) -> None:
    """Emit the baseline protocol messages of one transaction.

    Each message goes to ``emit(kind, src, dst)`` as a small-int kind from
    :mod:`repro.coherence.messages`; the classification pass of
    :func:`trace_traffic` passes a counter, and column-less traffic
    replays pass :meth:`~repro.interconnect.network.TrafficAccountant.emit`
    (:func:`coherence_codes`'s ``sink``).  For a read, pass the ``READ_*``
    code :meth:`CoherenceProtocol.read_ints` returned and call *after* the
    read.  For a write, leave ``read_code`` as None and call *before*
    :meth:`CoherenceProtocol.write_ints`: the messages depend on the holder
    set the write is about to invalidate.  The home is
    ``address % protocol.num_nodes``, as
    :meth:`~repro.coherence.directory.Directory.home_of` computes it.

    * Read hit: no messages.
    * Cold read: request to the home, data reply from the home.
    * Coherent (or spin) read: :func:`coherent_read_messages`.
    * Write miss: read-exclusive request and data reply from the home;
      write hit by a sharer: upgrade request.  Either way the home
      invalidates every other holder except itself, and each victim acks
      the writer.  A write by the sole holder is silent.
    """
    home = address % protocol.num_nodes
    if read_code is not None:
        if read_code == READ_HIT:
            return
        if read_code == READ_COLD:
            emit(READ_REQUEST, node, home)
            emit(DATA_REPLY, home, node)
            return
        coherent_read_messages(emit, node, home, protocol._blocks[address].last_writer)
        return

    block = protocol._blocks.get(address)
    holders = block.held_version if block is not None else {}
    had_copy = node in holders
    if had_copy and len(holders) == 1:
        return  # silent upgrade of an exclusive copy
    emit(UPGRADE_REQUEST if had_copy else READ_EXCLUSIVE_REQUEST, node, home)
    for victim in holders:
        if victim == node or victim == home:
            continue
        emit(INVALIDATE, home, victim)
        emit(INVALIDATE_ACK, victim, node)
    if not had_copy:
        emit(DATA_REPLY, home, node)


def coherent_read_messages(
    emit: Callable[[int, NodeId, NodeId], None],
    node: NodeId,
    home: NodeId,
    producer: NodeId,
) -> None:
    """Emit the baseline messages of one coherent (or spin) read miss.

    The request goes to the home, which forwards it to the producer; the
    producer still holds its copy (only a write invalidates one, and a
    write makes its writer the producer) and replies cache-to-cache (three
    hops) — unless the producer is the home itself (two hops).  A
    traffic-accounted replay passes
    :meth:`~repro.interconnect.network.TrafficAccountant.retract` to take
    an SVB-served read's messages back out of the trace's counts.
    """
    emit(READ_REQUEST, node, home)
    if producer != home:
        emit(FORWARD_REQUEST, home, producer)
        emit(DATA_REPLY_COHERENT, producer, node)
    else:
        emit(DATA_REPLY_COHERENT, home, node)
