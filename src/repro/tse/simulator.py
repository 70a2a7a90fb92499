"""Trace-driven functional simulation of a DSM with the Temporal Streaming Engine.

The :class:`TSESimulator` replays a globally interleaved access trace through
the coherence protocol and the TSE, and reports the metrics the paper's
sensitivity studies use:

* **coverage** — fraction of consumptions eliminated by SVB hits;
* **discards** — erroneously streamed blocks (fetched but never used),
  expressed as a fraction of consumptions;
* the stream-length distribution of hits (Figure 13);
* optional interconnect traffic accounting (Figure 11).

Latency is not modelled here — that is the job of
:mod:`repro.system.timing` — which mirrors the paper's own split between
trace-based analysis (Figures 6–13) and cycle-accurate simulation
(Figure 14, Table 3).

The replay loop is the hottest code in the repository: every experiment point
replays hundreds of thousands of accesses through it.  ``_replay_chunk``
therefore consumes packed :class:`~repro.common.chunk.TraceChunk` columns
directly — raw node / block / type-code ints plus the chunk's coherence code
column, with counters in plain local ints (synced into :class:`TSEStats` at
chunk end), outcomes recorded into parallel ``array`` buffers, and the
cyclic GC paused for the duration of a run (the loop allocates no reference
cycles).

The loop runs no coherence of its own.  An SVB hit installs exactly the copy
the base system's coherent read miss would, so the coherence state evolves
the same way with TSE as without it, and the base system's classification
of every access is a property of the trace alone.
:func:`~repro.coherence.protocol.trace_codes` classifies a trace once and
memoizes one code column per chunk on it; every replay of that trace, under
any configuration and on either plane, reads those columns.  Column-less
inputs (:meth:`TSESimulator.run_chunks`, :meth:`TSESimulator.run_stream`)
are classified on the way in by the same generator.  Only traffic
accounting steps a live protocol, because a transaction's messages depend
on the holder set and the producer: around each miss and write,
:func:`~repro.coherence.protocol.transaction_messages` counts the messages
it derives from that state into the accountant, and the TSE planes count
theirs at their sink sites.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from itertools import islice, takewhile, tee
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.coherence.protocol import (
    READ_COHERENT,
    READ_HIT,
    READ_SPIN_COHERENT,
    WRITE,
    CoherenceProtocol,
    coherence_codes,
    trace_codes,
    transaction_messages,
)
from repro.common.chunk import ChunkedTrace, TraceChunk, stream_chunk_size, trace_chunks
from repro.common.config import (
    DEFAULT_WARMUP_FRACTION,
    MODE_EXACT,
    MODE_FAST,
    InterconnectConfig,
    TSEConfig,
    resolve_mode,
)
from repro.common.stats import Histogram, ratio
from repro.common.types import TYPE_SPIN_READ, AccessTrace, MemoryAccess
from repro.interconnect.network import TrafficAccountant
from repro.tse.engine import TemporalStreamingSystem
from repro.tse.fast_engine import FastTemporalStreamingSystem


class Outcome(enum.IntEnum):
    """Per-access outcome codes recorded for the timing model.

    The values are stable because reference outputs sum them; 5 is
    unassigned.
    """

    OTHER = 0
    CONSUMPTION = 1
    SVB_HIT = 2
    SPIN = 3
    COLD_MISS = 4
    WRITE = 6


@dataclass(slots=True)
class TSEStats:
    """Results of one trace-driven TSE run."""

    workload: str = ""
    #: Consumptions that hit in the SVB (eliminated coherent read misses).
    svb_hits: int = 0
    #: Consumptions that still missed (streams absent, late, or wrong).
    remaining_consumptions: int = 0
    #: Spin coherent misses (excluded from consumptions, reported for context).
    spin_misses: int = 0
    #: Blocks streamed into SVBs.
    blocks_fetched: int = 0
    #: Streamed blocks that left an SVB without being used.
    discarded_blocks: int = 0
    #: Reads, writes, and total accesses processed.
    reads: int = 0
    writes: int = 0
    accesses: int = 0
    #: Cold misses (not targeted by TSE).
    cold_misses: int = 0
    #: Histogram of realized stream lengths weighted by hits (Figure 13).
    stream_length_hist: Histogram = field(default_factory=lambda: Histogram("stream_length"))
    #: Traffic accounting, present when the simulator was asked to track it.
    traffic: Optional[Dict[str, float]] = None

    @property
    def total_consumptions(self) -> int:
        """Consumptions of the equivalent base system (hits replace misses 1:1)."""
        return self.svb_hits + self.remaining_consumptions

    @property
    def coverage(self) -> float:
        """Fraction of consumptions eliminated (the paper's Coverage)."""
        return ratio(self.svb_hits, self.total_consumptions)

    @property
    def discard_rate(self) -> float:
        """Discarded blocks as a fraction of consumptions (the paper's Discards)."""
        return ratio(self.discarded_blocks, self.total_consumptions)

    @property
    def accuracy(self) -> float:
        """Fraction of streamed blocks that were useful."""
        return ratio(self.svb_hits, self.blocks_fetched)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "workload": self.workload,
            "svb_hits": self.svb_hits,
            "remaining_consumptions": self.remaining_consumptions,
            "total_consumptions": self.total_consumptions,
            "coverage": self.coverage,
            "discards": self.discarded_blocks,
            "discard_rate": self.discard_rate,
            "blocks_fetched": self.blocks_fetched,
            "accuracy": self.accuracy,
            "spin_misses": self.spin_misses,
            "cold_misses": self.cold_misses,
            "reads": self.reads,
            "writes": self.writes,
            "accesses": self.accesses,
        }
        if self.traffic is not None:
            out.update({f"traffic.{k}": v for k, v in self.traffic.items()})
        return out


class TSESimulator:
    """Replays a trace's packed and code columns with TSE attached.

    With ``account_traffic`` the simulator owns a
    :class:`~repro.interconnect.network.TrafficAccountant` that counts from
    the first access.  The warm-up reset (:meth:`reset_stats`) restarts the
    :class:`TSEStats` counters but not the accountant, so ``stats.traffic``
    covers the whole trace, warm-up window included, while every other
    counter covers only the measured window.
    """

    def __init__(
        self,
        num_nodes: int,
        tse_config: Optional[TSEConfig] = None,
        account_traffic: bool = False,
        interconnect_config: Optional[InterconnectConfig] = None,
        record_outcomes: bool = False,
        mode: Optional[str] = None,
    ) -> None:
        self.num_nodes = num_nodes
        #: Resolved replay pipeline: :data:`~repro.common.config.MODE_EXACT`
        #: (bit-exact, the default) or :data:`~repro.common.config.MODE_FAST`
        #: (batched orchestration, tolerance-band validated).  ``None``
        #: resolves through the ambient mode / ``REPRO_FAST_MODE``.
        self.mode = resolve_mode(mode)
        if self.mode == MODE_FAST and record_outcomes:
            raise ValueError(
                "record_outcomes requires exact mode: the fast plane fuses "
                "fetch and delivery and keeps no per-access fill times"
            )
        #: When enabled, one (Outcome, lead) pair per access is recorded into
        #: the parallel ``outcome_codes`` / ``outcome_leads`` arrays for the
        #: timing model; lead is meaningful only for SVB hits and counts the
        #: node-local accesses between the block's fetch being issued and its
        #: use (the timing model converts that to wall clock).
        self.record_outcomes = record_outcomes
        self.outcome_codes = array("B")
        # Signed per-access lead counts for the timing model — not the
        # packed-slot plane, so the slot-layout rule does not apply here.
        self.outcome_leads = array("q")  # repro-lint: disable=RL004
        self._node_access_counts = [0] * num_nodes
        self.tse_config = tse_config if tse_config is not None else TSEConfig.paper_default()
        #: Owns the directory the TSE planes keep CMOB pointers in.  Its block
        #: state is stepped only when traffic is accounted.
        self.protocol = CoherenceProtocol(
            num_nodes, cmob_pointers_per_block=self.tse_config.cmob_pointers_per_block
        )
        self.traffic: Optional[TrafficAccountant] = None
        if account_traffic:
            icfg = interconnect_config if interconnect_config is not None else (
                self._default_interconnect(num_nodes)
            )
            self.traffic = TrafficAccountant(icfg)
        #: Exactly one replay plane is built; ``tse`` is the exact plane,
        #: ``fast`` the batched one (the unused plane is None).
        self.tse: Optional[TemporalStreamingSystem] = None
        self.fast: Optional[FastTemporalStreamingSystem] = None
        if self.mode == MODE_FAST:
            self.fast = FastTemporalStreamingSystem(
                num_nodes, self.tse_config, self.protocol.directory,
                traffic=self.traffic, blocks_map=self.protocol._blocks,
            )
        else:
            self.tse = TemporalStreamingSystem(
                num_nodes, self.tse_config, self.protocol.directory, traffic=self.traffic
            )
        self.stats = TSEStats()

    @property
    def outcomes(self) -> List[Tuple[int, int]]:
        """Recorded (outcome code, lead) pairs, one per processed access."""
        return list(zip(self.outcome_codes, self.outcome_leads))

    @staticmethod
    def _default_interconnect(num_nodes: int) -> InterconnectConfig:
        import math

        width = int(math.isqrt(num_nodes))
        while width > 1 and num_nodes % width:
            width -= 1
        return InterconnectConfig(width=max(width, 1), height=num_nodes // max(width, 1))

    # ---------------------------------------------------------------- delivery
    def _deliver_fetches(self, node: int, fetches, fill_time: float = 0.0) -> None:
        """Deliver the event's ``(queue_id, [addresses])`` fetch batches."""
        if not fetches:
            return
        fetched, discarded = self.tse.deliver_all(
            node, fetches, fill_time, self.protocol._blocks
        )
        self.stats.blocks_fetched += fetched
        self.stats.discarded_blocks += discarded

    # --------------------------------------------------------------------- run
    def run(
        self,
        trace: Union[AccessTrace, ChunkedTrace, Iterable[MemoryAccess]],
        warmup_fraction: float = 0.0,
    ) -> TSEStats:
        """Replay a whole trace (or access stream) and return the statistics.

        Args:
            trace: The interleaved multi-node access trace: a packed
                :class:`~repro.common.chunk.ChunkedTrace` or a materialized
                :class:`AccessTrace` (both replayed against the trace's
                memoized code columns, :func:`trace_codes`), or any
                iterable of :class:`MemoryAccess` (e.g. ``workload.stream()``),
                which is consumed through :meth:`run_stream`.
            warmup_fraction: Fraction of the trace processed before statistics
                are reset — mirroring the paper's methodology of warming
                caches, CMOBs and directory state before measurement
                (Section 4).  State (CMOB contents, SVB, directory pointers)
                carries over; only the counters restart.  A fraction needs a
                known length, so it requires a materialized trace; for
                streams use :meth:`run_stream` with ``warmup_accesses``.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if isinstance(trace, (ChunkedTrace, AccessTrace)):
            return self._run(
                zip(trace_chunks(trace), trace_codes(trace)),
                trace.name,
                int(len(trace) * warmup_fraction),
            )
        if warmup_fraction:
            raise ValueError(
                "warmup_fraction needs a materialized AccessTrace; "
                "use run_stream(..., warmup_accesses=N) for streams"
            )
        return self.run_stream(trace)

    def run_chunks(
        self,
        chunks: Iterable[TraceChunk],
        name: str = "stream",
        warmup_accesses: int = 0,
    ) -> TSEStats:
        """Replay packed chunks that begin a trace, e.g. ``stream_chunks()``.

        The chunks carry no code column, so :func:`coherence_codes`
        classifies each one just before it is replayed, starting from empty
        caches, and at most one chunk is held at a time.  Statistics reset
        at exactly ``warmup_accesses`` (splitting a chunk if necessary), so
        this is bit-identical to :meth:`run` over the equivalent trace.
        """
        chunks, ahead = tee(chunks)
        classified = coherence_codes(CoherenceProtocol(self.num_nodes), ahead)
        return self._run(zip(chunks, classified), name, warmup_accesses)

    def run_stream(
        self,
        accesses: Iterable[MemoryAccess],
        name: str = "stream",
        warmup_accesses: int = 0,
    ) -> TSEStats:
        """Replay a ``MemoryAccess`` stream without materializing it.

        Equivalent to :meth:`run` on the materialized trace, bit for bit:
        the stream is packed into chunks and replayed through
        :meth:`run_chunks`, holding at most one chunk of accesses at a time —
        workload generators emit traces lazily via ``workload.stream()``, so
        arbitrarily long runs fit in memory.

        Args:
            accesses: The interleaved access stream.
            name: Workload label recorded in the statistics.
            warmup_accesses: Number of leading accesses replayed before the
                statistics are reset (the stream-length analogue of ``run``'s
                ``warmup_fraction``).
        """
        chunk_size = stream_chunk_size()
        iterator = iter(accesses)
        # Chunks of ``chunk_size`` accesses until the stream runs dry.
        chunks = iter(
            lambda: TraceChunk.from_accesses(islice(iterator, chunk_size)), None
        )
        return self.run_chunks(
            takewhile(len, chunks), name=name, warmup_accesses=warmup_accesses
        )

    def _run(
        self,
        columns: Iterable[Tuple[TraceChunk, bytes]],
        name: str,
        warmup_accesses: int = 0,
    ) -> TSEStats:
        """Replay ``(chunk, code column)`` pairs and finalize the run.

        Chunk boundaries are invisible to the results: statistics reset at
        exactly ``warmup_accesses``, splitting a chunk and its column if
        necessary.
        """
        if warmup_accesses < 0:
            raise ValueError("warmup_accesses must be non-negative")
        import gc

        self.stats.workload = name
        replay = self._replay_chunk
        warm_left = warmup_accesses
        measuring = warmup_accesses == 0
        # Replay allocates heavily but produces no reference cycles, so the
        # cyclic collector only costs time here; pause it for the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for chunk, codes in columns:
                if measuring:
                    replay(chunk, codes)
                    continue
                size = len(chunk)
                if warm_left >= size:
                    replay(chunk, codes)
                    warm_left -= size
                    if warm_left == 0:
                        self.reset_stats(name)
                        measuring = True
                else:
                    replay(chunk.slice(0, warm_left), codes[:warm_left])
                    self.reset_stats(name)
                    measuring = True
                    replay(chunk.slice(warm_left), codes[warm_left:])
        finally:
            if gc_was_enabled:
                gc.enable()
        if not measuring:
            # Warm-up swallowed the whole trace: measurement window is empty.
            self.reset_stats(name)
        return self.finalize()

    def reset_stats(self, workload: str = "") -> None:
        """Restart measurement (end of warm-up) without touching simulator state.

        The traffic accountant is simulator state here: its counts run on.
        """
        self.stats = TSEStats(workload=workload or self.stats.workload)

    def _replay_chunk(self, chunk: TraceChunk, codes: bytes) -> None:
        """Replay one packed chunk and its code column through the mode's plane.

        One dispatch per chunk (16k accesses by default): the exact loop
        (:meth:`_replay_chunk_exact`, bit-reproducible) or the fast loop
        (:meth:`_replay_chunk_fast`, batched orchestration).
        """
        if self.fast is not None:
            self._replay_chunk_fast(chunk, codes)
        else:
            self._replay_chunk_exact(chunk, codes)

    def _replay_chunk_exact(self, chunk: TraceChunk, codes: bytes) -> None:
        """Replay one packed chunk; the hot loop of the whole repository.

        Operates on the raw columns — int node / block / type-code per
        access plus the chunk's code column, which alone says whether an
        access is a write, a read hit, a consumption, a spin miss or a cold
        miss (no attribute loads, no enum dispatch, no per-access
        allocation).  Only a non-spin read's SVB probe can override the
        code.  Counters are accumulated in local ints and synced into
        ``self.stats`` once at the end of the chunk; outcome recording
        appends to the preallocated parallel arrays.
        """
        n = len(codes)
        if n == 0:
            return
        # Box each column once (C-level tolist) instead of once per access
        # inside the zip — block addresses are large ints, so per-element
        # array iteration would allocate a fresh object for every access.
        nodes_col = chunk.nodes.tolist()
        blocks_col = chunk.blocks.tolist()
        types_col = chunk.types.tolist()

        # ---- bind everything the loop touches to locals ----
        tse = self.tse
        protocol = self.protocol
        # Traffic accounting steps the live protocol, whose state names each
        # transaction's messages: a write's depend on the holders it is about
        # to invalidate, a read's on the block's producer.
        emit = self.traffic.emit if self.traffic is not None else None
        read_ints = protocol.read_ints
        write_ints = protocol.write_ints
        messages_of = transaction_messages
        tse_on_write = tse.on_write
        tse_on_svb_hit = tse.on_svb_hit
        tse_on_consumption = tse.on_consumption
        residency = tse._svb_residency
        deliver_fetches = self._deliver_fetches
        node_counts = self._node_access_counts
        engines = [node.engine for node in tse.nodes]
        svb_maps = [engine.svb._entries for engine in engines]
        record = self.record_outcomes
        codes_append = self.outcome_codes.append
        leads_append = self.outcome_leads.append

        spin_code = TYPE_SPIN_READ
        write = WRITE
        read_hit = READ_HIT
        read_coherent = READ_COHERENT
        read_spin = READ_SPIN_COHERENT

        outcome_write = int(Outcome.WRITE)
        outcome_svb_hit = int(Outcome.SVB_HIT)
        outcome_consumption = int(Outcome.CONSUMPTION)
        outcome_spin = int(Outcome.SPIN)
        outcome_cold = int(Outcome.COLD_MISS)
        outcome_other = int(Outcome.OTHER)

        # ---- local counters, synced into TSEStats at the end ----
        n_writes = 0
        n_svb_hits = 0
        n_consumptions = 0
        n_spin = 0
        n_cold = 0
        n_discards = 0

        # Per-node access clocks feed only the recorded SVB fill times and
        # hit leads; without outcome recording nothing observable reads
        # them, so the non-recording replay skips the bookkeeping entirely.
        node_access_index = 0
        for code, type_code, node, address in zip(codes, types_col, nodes_col, blocks_col):
            if record:
                node_access_index = node_counts[node] + 1
                node_counts[node] = node_access_index
            if code == write:
                n_writes += 1
                # Writes invalidate matching SVB entries everywhere;
                # invalidated streamed blocks were never consumed, so they
                # are discards.  The residency membership test is hoisted
                # out of ``on_write`` — the vast majority of writes touch
                # blocks no SVB holds.
                if address in residency:
                    n_discards += tse_on_write(node, address)
                if emit is not None:
                    messages_of(protocol, node, address, emit)
                    write_ints(node, address)
                if record:
                    codes_append(outcome_write)
                    leads_append(0)
                continue

            if emit is not None:
                # The live protocol steps through the base system, where
                # every read is a demand read: an SVB hit leaves the reader
                # holding the copy the miss would have brought.
                read_ints(node, address, type_code == spin_code)
            # Spin reads never count as consumptions and are not streamed.
            if type_code != spin_code and address in svb_maps[node]:
                entry, fetches = tse_on_svb_hit(node, address)
                if entry is not None:
                    n_svb_hits += 1
                    if fetches:
                        deliver_fetches(node, fetches, fill_time=node_access_index)
                    if record:
                        lead = int(node_access_index - entry[2])
                        codes_append(outcome_svb_hit)
                        leads_append(lead if lead > 0 else 0)
                    continue
                # Entry vanished between probe and consume (should not
                # happen in the functional model); fall through.
            if code == read_hit:
                if record:
                    codes_append(outcome_other)
                    leads_append(0)
                continue
            if emit is not None:
                messages_of(protocol, node, address, emit, code)

            if code == read_coherent:
                n_consumptions += 1
                _, fetches = tse_on_consumption(node, address)
                if fetches:
                    deliver_fetches(node, fetches, fill_time=node_access_index)
                if record:
                    codes_append(outcome_consumption)
                    leads_append(0)
            elif code == read_spin:
                n_spin += 1
                if record:
                    codes_append(outcome_spin)
                    leads_append(0)
            else:
                n_cold += 1
                # A cold miss implies the block's version is 0 (never
                # written): every FIFO/stall-head address originates from a
                # CMOB entry, which is only recorded for blocks that had
                # version > 0 at recording time — and versions never
                # decrease.  The miss therefore cannot resolve a stall or
                # realign a stream; only the engine's activity clock (LRU
                # reclamation time base) must still advance, exactly as the
                # full ``on_offchip_miss`` scan would have advanced it.
                engines[node]._activity_clock += 1
                if record:
                    codes_append(outcome_cold)
                    leads_append(0)

        # ---- sync ----
        stats = self.stats
        stats.accesses += n
        stats.reads += n - n_writes
        stats.writes += n_writes
        stats.svb_hits += n_svb_hits
        stats.remaining_consumptions += n_consumptions
        stats.spin_misses += n_spin
        stats.cold_misses += n_cold
        stats.discarded_blocks += n_discards

    def _replay_chunk_fast(self, chunk: TraceChunk, codes: bytes) -> None:
        """Fast-plane replay of one packed chunk (``REPRO_FAST_MODE``).

        Shaped like :meth:`_replay_chunk_exact`, but every TSE event goes
        through the fast engine's fused handlers — delivery happens inside
        the event, so there is no fetch-batch plumbing and no outcome
        recording (rejected at construction).
        """
        n = len(codes)
        if n == 0:
            return
        nodes_col = chunk.nodes.tolist()
        blocks_col = chunk.blocks.tolist()
        types_col = chunk.types.tolist()

        fast = self.fast
        protocol = self.protocol
        emit = self.traffic.emit if self.traffic is not None else None
        read_ints = protocol.read_ints
        write_ints = protocol.write_ints
        messages_of = transaction_messages
        consume = fast.consume
        hit = fast.hit
        invalidate = fast.invalidate
        residency = fast._svb_residency
        svbs = fast._svbs
        clocks = fast._clocks

        spin_code = TYPE_SPIN_READ
        write = WRITE
        read_hit = READ_HIT
        read_coherent = READ_COHERENT
        read_spin = READ_SPIN_COHERENT

        n_writes = 0
        n_svb_hits = 0
        n_consumptions = 0
        n_spin = 0
        n_cold = 0
        n_fetched = 0
        n_discards = 0

        for code, type_code, node, address in zip(codes, types_col, nodes_col, blocks_col):
            if code == write:
                n_writes += 1
                if address in residency:
                    n_discards += invalidate(address)
                if emit is not None:
                    messages_of(protocol, node, address, emit)
                    write_ints(node, address)
                continue

            if emit is not None:
                read_ints(node, address, type_code == spin_code)
            if type_code != spin_code and address in svbs[node]:
                n_svb_hits += 1
                d, x = hit(node, address)
                n_fetched += d
                n_discards += x
                continue
            if code == read_hit:
                continue
            if emit is not None:
                messages_of(protocol, node, address, emit, code)

            if code == read_coherent:
                n_consumptions += 1
                d, x = consume(node, address)
                n_fetched += d
                n_discards += x
            elif code == read_spin:
                n_spin += 1
            else:
                n_cold += 1
                # Only the LRU time base advances (see the exact loop).
                clocks[node] += 1

        stats = self.stats
        stats.accesses += n
        stats.reads += n - n_writes
        stats.writes += n_writes
        stats.svb_hits += n_svb_hits
        stats.remaining_consumptions += n_consumptions
        stats.spin_misses += n_spin
        stats.cold_misses += n_cold
        stats.blocks_fetched += n_fetched
        stats.discarded_blocks += n_discards

    def finalize(self) -> TSEStats:
        """Account for end-of-run leftovers and collect distributions."""
        if self.fast is not None:
            leftovers = self.fast.drain()
            self.stats.discarded_blocks += sum(leftovers.values())
            for node in range(self.num_nodes):
                for length in self.fast.stream_length_samples(node):
                    if length > 0:
                        self.stats.stream_length_hist.record(length, weight=length)
        else:
            leftovers = self.tse.drain()
            self.stats.discarded_blocks += sum(leftovers.values())
            for node in self.tse.nodes:
                for length in node.engine.stream_length_samples():
                    if length > 0:
                        self.stats.stream_length_hist.record(length, weight=length)
        if self.traffic is not None:
            self.stats.traffic = self.traffic.snapshot()
        return self.stats


def run_tse_on_trace(
    trace: Union[AccessTrace, ChunkedTrace],
    tse_config: Optional[TSEConfig] = None,
    account_traffic: bool = False,
    interconnect_config: Optional[InterconnectConfig] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    mode: Optional[str] = None,
) -> TSEStats:
    """Convenience wrapper: build a simulator for the trace and run it.

    Defaults to the experiment harness's shared
    :data:`~repro.common.config.DEFAULT_WARMUP_FRACTION` warm-up window; pass
    ``warmup_fraction=0.0`` to measure from the first access.  ``mode``
    selects the replay plane (``None`` resolves the ambient mode /
    ``REPRO_FAST_MODE``, as everywhere).
    """
    simulator = TSESimulator(
        trace.num_nodes,
        tse_config=tse_config,
        account_traffic=account_traffic,
        interconnect_config=interconnect_config,
        mode=mode,
    )
    return simulator.run(trace, warmup_fraction=warmup_fraction)
