"""Columnar trace backbone: packed access chunks and chunked traces.

The workload engine emits traces as fixed-size :class:`TraceChunk` objects —
six parallel packed columns (``array`` typecodes in parentheses):

=============  ====  ====================================================
column         type  meaning
=============  ====  ====================================================
``nodes``      't'=h Issuing node id.
``blocks``     'q'   Block-granular address.
``types``      'B'   Small-int access-type code (:data:`TYPE_READ` ...).
``pcs``        'q'   Program-counter tag.
``timestamps`` 'q'   Per-node logical retire time.
``deps``       'B'   1 when the access is a dependent (pointer-chase) read.
=============  ====  ====================================================

Between the emitters and the columns sits the *packed access record*: the
plain tuple ``(node, block, type_code, pc, timestamp, dependent)`` that
workload primitives append to their batch lists.  Tuples of ints are what
keeps generation allocation-light; the chunk packs them without ever
constructing a :class:`~repro.common.types.MemoryAccess`.

Every consumer reads the columns through :meth:`ChunkedTrace.chunks`: the
functional simulator, the coherence classifier, the timing model, the
bandwidth estimate and the prefetcher harness.
:attr:`ChunkedTrace.accesses` decodes the columns into ``MemoryAccess``
objects on demand; nothing in the package reads it.

The workload engine emits :data:`DEFAULT_STREAM_CHUNK` accesses per chunk
unless a caller passes ``chunk_size``; the size never changes a result.

Consumers memoize what they derive from a trace in
:attr:`ChunkedTrace.memo`, which :meth:`ChunkedTrace.append_chunk` clears:
a trace grows only through that method, so every memo describes the trace
as it stands.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.types import ACCESS_TYPE_FROM_CODE, MemoryAccess

__all__ = ["TraceChunk", "ChunkedTrace", "PackedAccess", "DEFAULT_STREAM_CHUNK"]

#: Accesses per emitted chunk: large enough to amortize the replay loop's
#: per-segment local binding, small enough that a chunk's six packed
#: columns stay cache-resident.
DEFAULT_STREAM_CHUNK = 16384

#: The packed access record emitted by workload primitives.
PackedAccess = Tuple[int, int, int, int, int, int]


class TraceChunk:
    """One fixed-size segment of a trace as six parallel packed columns."""

    __slots__ = ("nodes", "blocks", "types", "pcs", "timestamps", "deps")

    def __init__(
        self,
        nodes: Optional[array] = None,
        blocks: Optional[array] = None,
        types: Optional[array] = None,
        pcs: Optional[array] = None,
        timestamps: Optional[array] = None,
        deps: Optional[array] = None,
    ) -> None:
        self.nodes = nodes if nodes is not None else array("h")
        self.blocks = blocks if blocks is not None else array("q")
        self.types = types if types is not None else array("B")
        self.pcs = pcs if pcs is not None else array("q")
        self.timestamps = timestamps if timestamps is not None else array("q")
        self.deps = deps if deps is not None else array("B")

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------ filling
    def extend_packed(self, records: Iterable[PackedAccess]) -> None:
        """Append packed ``(node, block, type, pc, timestamp, dep)`` records."""
        nodes_append = self.nodes.append
        blocks_append = self.blocks.append
        types_append = self.types.append
        pcs_append = self.pcs.append
        ts_append = self.timestamps.append
        deps_append = self.deps.append
        for node, block, type_code, pc, timestamp, dep in records:
            nodes_append(node)
            blocks_append(block)
            types_append(type_code)
            pcs_append(pc)
            ts_append(timestamp)
            deps_append(1 if dep else 0)

    # ------------------------------------------------------------------ slicing
    def slice(self, start: int, stop: Optional[int] = None) -> "TraceChunk":
        """A new chunk holding ``[start:stop]`` of every column."""
        if stop is None:
            stop = len(self.nodes)
        return TraceChunk(
            self.nodes[start:stop], self.blocks[start:stop], self.types[start:stop],
            self.pcs[start:stop], self.timestamps[start:stop], self.deps[start:stop],
        )

    # -------------------------------------------------------------- object view
    def iter_accesses(self) -> Iterator[MemoryAccess]:
        """Materialize the chunk's accesses one at a time."""
        decode = ACCESS_TYPE_FROM_CODE
        for node, block, type_code, pc, timestamp, dep in zip(
            self.nodes, self.blocks, self.types, self.pcs, self.timestamps, self.deps
        ):
            yield MemoryAccess(
                node=node, address=block, access_type=decode[type_code],
                pc=pc, timestamp=timestamp, dependent=bool(dep),
            )

    # ------------------------------------------------------------- serialization
    def to_payload(self) -> Tuple[array, array, array, array, array, array]:
        """The raw columns, picklable as flat buffers (parallel-runner hand-off)."""
        return (self.nodes, self.blocks, self.types, self.pcs, self.timestamps, self.deps)

    @classmethod
    def from_payload(cls, payload: Sequence[array]) -> "TraceChunk":
        return cls(*payload)


class ChunkedTrace:
    """An ordered, interleaved multi-node trace stored as packed chunks.

    The one trace type: every consumer reads :meth:`chunks`.
    """

    def __init__(self, num_nodes: int = 1, name: str = "trace") -> None:
        self.num_nodes = num_nodes
        self.name = name
        self._chunks: List[TraceChunk] = []
        self._length = 0
        #: Data derived from the trace by its consumers, by name
        #: (``accesses``, ``coherence_codes``, ``traffic_counts``,
        #: ``replay_records``, ``bare_replays``); :meth:`append_chunk`
        #: clears it.
        self.memo: Dict[str, Any] = {}

    # ---------------------------------------------------------------- building
    def append_chunk(self, chunk: TraceChunk) -> None:
        """Append one packed chunk, validating node ids in bulk."""
        if len(chunk):
            lo, hi = min(chunk.nodes), max(chunk.nodes)
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"chunk contains node {lo if lo < 0 else hi} outside "
                    f"[0, {self.num_nodes})"
                )
        self._chunks.append(chunk)
        self._length += len(chunk)
        self.memo.clear()

    # -------------------------------------------------------------- consumption
    def chunks(self) -> Sequence[TraceChunk]:
        """The packed chunks, in trace order."""
        return self._chunks

    # No caller in the package reads this view.  perfbench's ``figures``
    # workload times it as its ``chunk.materialize`` step, so removing it
    # waits for a change that redefines that benchmark.
    @property
    def accesses(self) -> List[MemoryAccess]:
        """Materialized object view (memoized after the first request)."""
        view = self.memo.get("accesses")
        if view is None:
            view = []
            for chunk in self._chunks:
                view.extend(chunk.iter_accesses())
            self.memo["accesses"] = view
        return view

    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------- serialization
    def to_payload(self) -> Tuple[int, str, List[Tuple[array, ...]]]:
        """Flat-buffer form for cheap pickling across process boundaries."""
        return (self.num_nodes, self.name, [c.to_payload() for c in self._chunks])

    @classmethod
    def from_payload(cls, payload: Tuple[int, str, List[Tuple[array, ...]]]) -> "ChunkedTrace":
        num_nodes, name, chunk_payloads = payload
        trace = cls(num_nodes=num_nodes, name=name)
        for chunk_payload in chunk_payloads:
            chunk = TraceChunk.from_payload(chunk_payload)
            trace._chunks.append(chunk)
            trace._length += len(chunk)
        return trace
