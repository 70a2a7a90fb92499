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
are the whole state machine; :meth:`~CoherenceProtocol.process` is an
object view over them, and :func:`transaction_messages` emits a
transaction's baseline messages, derived from the same block state, for
traffic accounting.

A read served from a TSE stream buffer or a prefetch buffer leaves the
reader holding the current version — the copy the base system's demand
miss would have installed — so the block state, and with it the base
system's classification of every access, does not depend on TSE or on any
prefetcher.  :func:`coherence_codes` therefore classifies a trace once,
into one code column per chunk, and :func:`trace_codes` memoizes the
columns on the trace for every replay, the timing model's base labels and
the prefetcher harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.coherence.directory import Directory
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
from repro.common.chunk import ChunkedTrace, TraceChunk, trace_chunks
from repro.common.stats import StatsRegistry, publish_counters
from repro.common.types import (
    TYPE_IS_WRITE,
    TYPE_SPIN_READ,
    AccessTrace,
    BlockAddress,
    Consumption,
    MemoryAccess,
    MissClass,
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

#: Read code -> MissClass, for the object view.
_MISS_CLASS_OF_READ = (
    MissClass.HIT,
    MissClass.COHERENT_READ_MISS,
    MissClass.SPIN_COHERENT_MISS,
    MissClass.COLD_MISS,
)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one access processed by the protocol.

    Attributes:
        access: The access that was processed.
        miss_class: Hit/miss classification.
        producer: Node whose write produced the version being read (only
            meaningful for coherent read misses).
        is_consumption: True when this access counts as a consumption
            (coherent read miss, not a spin).
    """

    access: MemoryAccess
    miss_class: MissClass
    producer: Optional[NodeId] = None

    @property
    def is_consumption(self) -> bool:
        return self.miss_class is MissClass.COHERENT_READ_MISS


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

    def __init__(self, num_nodes: int, cmob_pointers_per_block: int = 2) -> None:
        self.num_nodes = num_nodes
        self.directory = Directory(num_nodes, cmob_pointers_per_block)
        self._stats = StatsRegistry(prefix="protocol")
        # Per-access classification counts, kept as plain ints on the hot
        # path and published into the registry lazily via ``stats``.
        self._n_read_hits = 0
        self._n_coherent_read_misses = 0
        self._n_spin_coherent_misses = 0
        self._n_cold_misses = 0
        self._n_write_hits = 0
        self._n_write_misses = 0
        self._blocks: Dict[BlockAddress, _BlockState] = {}

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry, synchronized with the plain-int counters on read."""
        return publish_counters(self._stats, {
            "read_hits": self._n_read_hits,
            "coherent_read_misses": self._n_coherent_read_misses,
            "spin_coherent_misses": self._n_spin_coherent_misses,
            "cold_misses": self._n_cold_misses,
            "write_hits": self._n_write_hits,
            "write_misses": self._n_write_misses,
        })

    # ------------------------------------------------------------ state machine
    #
    # ``read_ints`` / ``write_ints`` take raw (node, block) ints, so the
    # classifier and the traffic-accounting replay call them with no
    # per-access allocation.
    def read_ints(self, node: NodeId, address: BlockAddress, is_spin: bool) -> int:
        """Classify (and apply) one read; returns a ``READ_*`` code."""
        block = self._blocks.get(address)
        if block is None:
            self._blocks[address] = block = _BlockState()
        version = block.version
        held = block.held_version
        if held.get(node) == version:
            self._n_read_hits += 1
            return READ_HIT
        held[node] = version
        # version > 0 implies last_writer is set (only writes bump versions).
        if version > 0 and block.last_writer != node:
            # The version being read was produced by another node.
            if is_spin:
                self._n_spin_coherent_misses += 1
                return READ_SPIN_COHERENT
            self._n_coherent_read_misses += 1
            return READ_COHERENT
        self._n_cold_misses += 1
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
        if hit:
            self._n_write_hits += 1
        else:
            self._n_write_misses += 1
        version = block.version + 1
        block.version = version
        block.last_writer = node
        held.clear()
        held[node] = version
        return hit

    # -------------------------------------------------------------- object view
    def process(self, access: MemoryAccess) -> AccessResult:
        """Process one access object through the int state machine."""
        node, address = access.node, access.address
        if access.is_write:
            hit = self.write_ints(node, address)
            return AccessResult(access, MissClass.HIT if hit else MissClass.WRITE_MISS)
        code = self.read_ints(node, address, access.is_spin)
        if code == READ_COHERENT or code == READ_SPIN_COHERENT:
            producer = self._blocks[address].last_writer
            return AccessResult(access, _MISS_CLASS_OF_READ[code], producer)
        return AccessResult(access, _MISS_CLASS_OF_READ[code])

    def process_trace(self, accesses) -> List[AccessResult]:
        """Process an iterable of accesses; convenience for analyses and tests."""
        return [self.process(a) for a in accesses]

    # ------------------------------------------------------------- inspection
    def version_of(self, address: BlockAddress) -> int:
        block = self._blocks.get(address)
        return block.version if block is not None else 0

    def holders_of(self, address: BlockAddress) -> List[NodeId]:
        """Nodes currently holding a copy of the block."""
        block = self._blocks.get(address)
        return list(block.held_version) if block is not None else []


def coherence_codes(
    protocol: CoherenceProtocol, chunks: Iterable[TraceChunk]
) -> Iterator[bytes]:
    """Classify chunks in trace order; yield each chunk's code column.

    A column holds one code per access: the ``READ_*`` code
    :meth:`CoherenceProtocol.read_ints` returns for a read, :data:`WRITE`
    for a write.  ``protocol`` carries the block state from one chunk to
    the next and ends in the trace's final state.
    """
    read_ints = protocol.read_ints
    write_ints = protocol.write_ints
    is_write = TYPE_IS_WRITE
    spin_read = TYPE_SPIN_READ
    for chunk in chunks:
        codes = bytearray()
        label = codes.append
        for node, block, type_code in zip(
            chunk.nodes.tolist(), chunk.blocks.tolist(), chunk.types.tolist()
        ):
            if is_write[type_code]:
                write_ints(node, block)
                label(WRITE)
            else:
                label(read_ints(node, block, type_code == spin_read))
        yield bytes(codes)


def trace_codes(trace: "Union[AccessTrace, ChunkedTrace]") -> List[bytes]:
    """A trace's code columns, one per :func:`~repro.common.chunk.trace_chunks`
    chunk, classified once.

    Memoized on the trace object and keyed by its length, so a trace that
    grows after a classification is classified afresh.
    """
    memo = getattr(trace, "_coherence_codes", None)
    if memo is None or memo[0] != len(trace):
        protocol = CoherenceProtocol(trace.num_nodes)
        memo = (len(trace), list(coherence_codes(protocol, trace_chunks(trace))))
        trace._coherence_codes = memo
    return memo[1]


def transaction_messages(
    protocol: CoherenceProtocol,
    node: NodeId,
    address: BlockAddress,
    emit: Callable[[int, NodeId, NodeId], None],
    read_code: Optional[int] = None,
) -> None:
    """Emit the baseline protocol messages of one transaction.

    Each message goes to ``emit(kind, src, dst)`` as a small-int kind from
    :mod:`repro.coherence.messages`; the traffic plane passes
    :meth:`~repro.interconnect.network.TrafficAccountant.emit`, which
    counts it.  For a read, pass the ``READ_*`` code
    :meth:`CoherenceProtocol.read_ints` returned and call *after* the read.
    For a write, leave ``read_code`` as None and call *before*
    :meth:`CoherenceProtocol.write_ints`: the messages depend on the holder
    set the write is about to invalidate.

    * Cold read: request to the home, data reply from the home.
    * Coherent (or spin) read: the home forwards the request to the
      producer, which still holds its copy (only a write invalidates one,
      and a write makes its writer the producer), and the producer replies
      cache-to-cache (three hops) — unless the producer is the home itself
      (two hops).
    * Write miss: read-exclusive request and data reply from the home;
      write hit by a sharer: upgrade request.  Either way the home
      invalidates every other holder except itself, and each victim acks
      the writer.  A write by the sole holder is silent.
    """
    home = protocol.directory.home_of(address)
    if read_code is not None:
        if read_code == READ_HIT:
            return
        emit(READ_REQUEST, node, home)
        if read_code == READ_COLD:
            emit(DATA_REPLY, home, node)
            return
        producer = protocol._blocks[address].last_writer
        if producer != home:
            emit(FORWARD_REQUEST, home, producer)
            emit(DATA_REPLY_COHERENT, producer, node)
        else:
            emit(DATA_REPLY_COHERENT, home, node)
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


def extract_consumptions(
    results: List[AccessResult], num_nodes: int
) -> List[List[Consumption]]:
    """Split classified results into per-node consumption sequences.

    Each node's list is ordered by the node's program order (which, because
    the trace is globally interleaved, is also its appearance order in the
    results).  The per-node ``index`` matches the CMOB slot the consumption
    would occupy.
    """
    per_node: List[List[Consumption]] = [[] for _ in range(num_nodes)]
    for global_index, result in enumerate(results):
        if not result.is_consumption:
            continue
        node = result.access.node
        per_node[node].append(
            Consumption(
                node=node,
                address=result.access.address,
                index=len(per_node[node]),
                global_index=global_index,
                timestamp=result.access.timestamp,
                producer=result.producer,
            )
        )
    return per_node
