"""Workload Engine v2 combinators: mixtures of primitives with streaming emission.

A workload is either *request-driven* (commercial: transactions / HTTP
requests dispatched to rotating nodes) or *phase-driven* (scientific:
barrier-delimited iterations where every node progresses together).  The two
combinators here own the dispatch / interleaving / stopping logic so that a
concrete workload only has to

* build its primitives (:meth:`MixtureWorkload.build`), and
* express one unit of work — a request (:meth:`RequestWorkload.request`) or
  one iteration's phases (:meth:`PhasedWorkload.iteration`).

Traces are emitted as a **stream of batches** — one request, or one
interleaved phase, at a time — where a batch is a list of *packed access
records* (see :mod:`repro.common.chunk`).  The emission loop fills packed
:class:`~repro.common.chunk.TraceChunk` columns directly:
:meth:`MixtureWorkload.stream_chunks` yields them one at a time (bounded
memory, for :meth:`~repro.tse.simulator.TSESimulator.run_chunks`) and
:meth:`MixtureWorkload.generate_chunked` collects them into a
:class:`~repro.common.chunk.ChunkedTrace`.  Both stop at the first batch
boundary after the access target is crossed, so they emit the same
accesses whatever the chunk size.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional

from repro.common.chunk import DEFAULT_STREAM_CHUNK, ChunkedTrace, TraceChunk
from repro.workloads.base import Workload, WorkloadParams, interleave

__all__ = [
    "MixtureWorkload",
    "PhasedWorkload",
    "RequestWorkload",
    "interleave",
]


class MixtureWorkload(Workload):
    """Base for every Workload Engine v2 workload.

    Subclasses allocate primitives in :meth:`build` and produce work in
    :meth:`batches`; this class provides the chunked trace APIs on top.
    """

    def __init__(self, params: Optional[WorkloadParams] = None) -> None:
        super().__init__(params)
        self.build()

    # ------------------------------------------------------------------- hooks
    @abc.abstractmethod
    def build(self) -> None:
        """Allocate primitives and any derived state (called once at init)."""

    @abc.abstractmethod
    def batches(self) -> Iterator[list]:
        """Endless stream of work units (one request / one interleaved phase),
        each a list of packed access records."""

    # ----------------------------------------------------------------- emission
    def stream_chunks(
        self,
        target_accesses: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[TraceChunk]:
        """Emit the trace as packed fixed-size chunks (the columnar backbone).

        Batches are packed straight into column arrays; chunk boundaries are
        independent of batch boundaries (a chunk is yielded as soon as it
        reaches ``chunk_size``), and emission stops at the first batch
        boundary after the access target is crossed ("finish the
        transaction you are in").
        """
        target = target_accesses if target_accesses is not None else self.params.target_accesses
        size = chunk_size if chunk_size is not None else DEFAULT_STREAM_CHUNK
        emitted = 0
        chunk = TraceChunk()
        for batch in self.batches():
            chunk.extend_packed(batch)
            emitted += len(batch)
            while len(chunk) >= size:
                yield chunk.slice(0, size)
                chunk = chunk.slice(size)
            if emitted >= target:
                break
        if len(chunk):
            yield chunk

    def generate_chunked(
        self,
        target_accesses: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> ChunkedTrace:
        """Materialize the chunk stream into a :class:`ChunkedTrace`."""
        trace = ChunkedTrace(num_nodes=self.params.num_nodes, name=self.name)
        for chunk in self.stream_chunks(target_accesses, chunk_size):
            trace.append_chunk(chunk)
        return trace


class RequestWorkload(MixtureWorkload):
    """Request-driven (commercial) combinator.

    Requests are dispatched round-robin with jitter, so consecutive requests
    touching a hot object land on different nodes (migratory sharing), and
    each request's accesses stay contiguous per node — the structure that
    keeps commercial consumption MLP near 1 in the timing model.
    """

    category = "commercial"

    #: Dispatcher skips ahead 1..DISPATCH_JITTER nodes between requests.
    DISPATCH_JITTER = 3
    #: RNG fork salt for the dispatch/request stream.
    RNG_SALT = 21

    @abc.abstractmethod
    def request(self, node: int, rng) -> list:
        """Emit one complete request / transaction executed by ``node``."""

    def batches(self) -> Iterator[list]:
        rng = self.rng.fork(self.RNG_SALT)
        num_nodes = self.params.num_nodes
        node = 0
        while True:
            node = (node + 1 + rng.randrange(self.DISPATCH_JITTER)) % num_nodes
            yield self.request(node, rng)


class PhasedWorkload(MixtureWorkload):
    """Phase-driven (scientific) combinator.

    Each iteration contributes one or more barrier-delimited phases; every
    phase is a set of per-node access lists interleaved ``quantum`` accesses
    at a time.
    """

    category = "scientific"

    #: RNG fork salt for the iteration stream.
    RNG_SALT = 23

    @abc.abstractmethod
    def iteration(self, index: int, rng) -> Iterator[List[list]]:
        """Yield this iteration's phases (per-node access lists, in order)."""

    def batches(self) -> Iterator[list]:
        rng = self.rng.fork(self.RNG_SALT)
        quantum = self.params.quantum
        index = 0
        while True:
            for per_node in self.iteration(index, rng):
                yield list(interleave(per_node, quantum))
            index += 1
