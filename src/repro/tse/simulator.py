"""Trace-driven functional simulation of a DSM with the Temporal Streaming Engine.

The :class:`TSESimulator` replays a globally interleaved access trace, with
its coherence classification, through the TSE, and reports the metrics the
paper's sensitivity studies use:

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
input (:meth:`TSESimulator.run_chunks`, e.g. over a workload's
``stream_chunks()``) is classified on the way in by the same generator.
For the same reason the base system's messages are a property of the trace:
a traffic-accounted :meth:`TSESimulator.run` adds the trace's memoized
count table (:func:`~repro.coherence.protocol.trace_traffic`) to its
accountant, and ``run_chunks`` counts each chunk's messages as it classifies
it.  The exact loop then takes back the messages of each coherent read an
SVB hit served, and the exact plane counts its own messages at its sink
sites.  With accounting on, the loop keeps one last-writer dict, which names
the producer of a served read and of each streamed block; it steps no
protocol.

Two planes replay a trace, and the ``mode`` argument of
:class:`TSESimulator` / :func:`run_tse_on_trace` is the only way to choose
one.  ``"exact"``, the default, is the bit-reproducible plane every figure,
the timing model and the service run.  ``"fast"`` is the batched plane of
:mod:`repro.tse.fast_engine`, checked only against tolerance bands
(``benchmarks/validate_fast_mode.py``), and it runs bare replays only: it
records no outcomes and accounts no traffic.  No determinism key names a
plane, so no cached or stored result can come from the fast one.

Figure 11's traffic-accounted replay and the timing model's outcome labels
(Figure 14, Table 3) replay the same trace under the same configuration.
:func:`replay_record` memoizes one exact-plane replay per trace and
configuration that serves both: the measured window with its traffic, the
warm-up-0 window, and the outcome columns.  Bare replays (no traffic, no
outcomes), the loop every sweep runs, never read or write it: perfbench
checks a traffic run against an independent bare replay, and a record
serving the bare side would check the record against itself.

Bare exact replays have their own memo on the trace object, which lets a
Fig. 9 or Fig. 10 size ladder replay only where the size binds.  The exact
plane reads the SVB capacity only at :meth:`TemporalStreamingSystem.deliver_all
<repro.tse.engine.TemporalStreamingSystem.deliver_all>`'s eviction check,
and the CMOB capacity only once an offset wraps (``_record``'s slot and
:meth:`CMOB.extend_into <repro.tse.cmob.CMOB.extend_into>`'s staleness test
and slot).  So a replay whose SVB never evicted takes the same steps with
any larger SVB, and a replay whose CMOBs never wrapped takes the same steps
with any CMOB of at least its high-water mark (the largest append count of
any node).  Each :class:`BareRecord` keeps a replay's statistics with those
two facts, and a bare ``run_tse_on_trace`` returns a record's statistics
when its configuration differs from the record's in those capacities alone,
within those limits (:meth:`BareRecord.serves`); otherwise it replays and
adds a record.  A smaller SVB is never answered: no record tracks peak
occupancy.  A capacity read added anywhere else in the exact plane breaks
this; ``tests/test_bare_replays.py`` checks the answers against fresh
replays under sizes that evict and wrap.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field, fields, replace
from itertools import tee
from typing import Dict, Iterable, Optional, Tuple

from repro.coherence.directory import Directory
from repro.coherence.protocol import (
    READ_COHERENT,
    READ_HIT,
    READ_SPIN_COHERENT,
    WRITE,
    CoherenceProtocol,
    coherence_codes,
    coherent_read_messages,
    trace_codes,
    trace_traffic,
)
from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import DEFAULT_WARMUP_FRACTION, InterconnectConfig, TSEConfig
from repro.common.stats import Histogram, ratio
from repro.common.types import TYPE_SPIN_READ
from repro.interconnect.network import TrafficAccountant
from repro.tse.engine import TemporalStreamingSystem
from repro.tse.fast_engine import FastTemporalStreamingSystem

#: The replay planes a ``mode`` argument may name.
MODES = ("exact", "fast")


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

    The simulator owns the :class:`~repro.coherence.directory.Directory`
    the TSE planes keep CMOB pointers in.  With ``account_traffic`` it also
    owns a :class:`~repro.interconnect.network.TrafficAccountant`, which
    starts from the base system's messages over the whole input and from
    there counts what TSE adds and takes back.  The warm-up reset
    (:meth:`reset_stats`) restarts the :class:`TSEStats` counters but not
    the accountant, so ``stats.traffic`` covers the whole trace, warm-up
    window included, while every other counter covers only the measured
    window.  ``mode`` picks the replay plane, ``"exact"`` or ``"fast"``;
    the fast plane takes neither ``record_outcomes`` nor ``account_traffic``.
    """

    def __init__(
        self,
        num_nodes: int,
        tse_config: Optional[TSEConfig] = None,
        account_traffic: bool = False,
        interconnect_config: Optional[InterconnectConfig] = None,
        record_outcomes: bool = False,
        mode: str = "exact",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown replay mode {mode!r}; valid: {MODES}")
        if mode == "fast" and (record_outcomes or account_traffic):
            raise ValueError(
                "the fast plane runs bare replays only: record outcomes and "
                "account traffic on the exact plane"
            )
        self.num_nodes = num_nodes
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
        self.directory = Directory(num_nodes, self.tse_config.cmob_pointers_per_block)
        self.traffic: Optional[TrafficAccountant] = None
        if account_traffic:
            icfg = interconnect_config if interconnect_config is not None else (
                self._default_interconnect(num_nodes)
            )
            self.traffic = TrafficAccountant(icfg)
        #: Last writer of each block written so far, kept by the exact loop
        #: only when traffic is accounted: it names the producer of a
        #: served coherent read and of each streamed block.
        self._last_writer: Dict[int, int] = {}
        #: Exactly one replay plane is built; ``tse`` is the exact plane,
        #: ``fast`` the batched one (the unused plane is None).
        self.tse: Optional[TemporalStreamingSystem] = None
        self.fast: Optional[FastTemporalStreamingSystem] = None
        if mode == "fast":
            self.fast = FastTemporalStreamingSystem(num_nodes, self.tse_config, self.directory)
        else:
            self.tse = TemporalStreamingSystem(
                num_nodes, self.tse_config, self.directory, traffic=self.traffic
            )
        self.stats = TSEStats()
        self.warmup_stats = TSEStats()
        #: Blocks the SVB evicted for lack of room over the whole replay,
        #: warm-up included (a write's invalidation is not an eviction).
        self.svb_evictions = 0

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
            node, fetches, fill_time, self._last_writer
        )
        self.stats.blocks_fetched += fetched
        self.stats.discarded_blocks += discarded
        self.svb_evictions += discarded

    # --------------------------------------------------------------------- run
    def run(self, trace: ChunkedTrace, warmup_fraction: float = 0.0) -> TSEStats:
        """Replay a whole trace and return the statistics.

        Args:
            trace: The interleaved multi-node access trace, replayed against
                its memoized code columns (:func:`trace_codes`).  With
                traffic accounted, the accountant starts from the trace's
                memoized message counts (:func:`trace_traffic`), so the
                trace must have the simulator's node count.
            warmup_fraction: Fraction of the trace processed before statistics
                are reset — mirroring the paper's methodology of warming
                caches, CMOBs and directory state before measurement
                (Section 4).  State (CMOB contents, SVB, directory pointers)
                carries over; only the counters restart.  For chunks without
                a trace object use :meth:`run_chunks` with
                ``warmup_accesses``.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.traffic is not None:
            if trace.num_nodes != self.num_nodes:
                raise ValueError(
                    f"traffic accounting needs the trace's node count "
                    f"({trace.num_nodes}) to equal the simulator's ({self.num_nodes})"
                )
            self.traffic.add_counts(trace_traffic(trace), trace.num_nodes)
        return self._run(
            zip(trace.chunks(), trace_codes(trace)),
            trace.name,
            int(len(trace) * warmup_fraction),
        )

    def run_chunks(
        self,
        chunks: Iterable[TraceChunk],
        name: str = "stream",
        warmup_accesses: int = 0,
    ) -> TSEStats:
        """Replay packed chunks that begin a trace, e.g. ``stream_chunks()``.

        The chunks carry no code column, so :func:`coherence_codes`
        classifies each one just before it is replayed, starting from empty
        caches, and at most one chunk is held at a time: a workload's
        ``stream_chunks()`` replays in bounded memory.  With traffic
        accounted, the same pass counts each chunk's baseline messages
        into the accountant.  Statistics reset at exactly
        ``warmup_accesses`` (splitting a chunk if necessary), so this is
        bit-identical to :meth:`run` over the equivalent trace.
        """
        chunks, ahead = tee(chunks)
        sink = self.traffic.emit if self.traffic is not None else None
        classified = coherence_codes(CoherenceProtocol(self.num_nodes), ahead, sink)
        return self._run(zip(chunks, classified), name, warmup_accesses)

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

        The replaced counters become ``warmup_stats``.  The traffic
        accountant is simulator state here: its counts run on.
        """
        self.warmup_stats = self.stats
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
        # Traffic accounting started from the base system's messages; the
        # loop takes back those of each coherent read an SVB hit served,
        # naming the producer from the last-writer dict it keeps.
        traffic = self.traffic
        last_writer = self._last_writer if traffic is not None else None
        retract = traffic.retract if traffic is not None else None
        take_back = coherent_read_messages
        num_nodes = self.num_nodes
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
                if last_writer is not None:
                    last_writer[address] = node
                if record:
                    codes_append(outcome_write)
                    leads_append(0)
                continue

            # Spin reads never count as consumptions and are not streamed.
            if type_code != spin_code and address in svb_maps[node]:
                entry, fetches = tse_on_svb_hit(node, address)
                if entry is not None:
                    n_svb_hits += 1
                    if last_writer is not None and code == read_coherent:
                        # The hit replaced the coherent read miss; a hit on
                        # a block the reader holds replaced no messages.
                        take_back(retract, node, address % num_nodes, last_writer[address])
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
        """Fast-plane replay of one packed chunk (``mode="fast"``).

        Shaped like :meth:`_replay_chunk_exact`, but every TSE event goes
        through the fast engine's fused handlers — delivery happens inside
        the event, so there is no fetch-batch plumbing, and no outcome
        recording or traffic take-back (both rejected at construction).
        """
        n = len(codes)
        if n == 0:
            return
        nodes_col = chunk.nodes.tolist()
        blocks_col = chunk.blocks.tolist()
        types_col = chunk.types.tolist()

        fast = self.fast
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
                continue

            if type_code != spin_code and address in svbs[node]:
                n_svb_hits += 1
                d, x = hit(node, address)
                n_fetched += d
                n_discards += x
                continue
            if code == read_hit:
                continue

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


#: The int counters of :class:`TSEStats`: a window's count is the sum of
#: its parts' counts.
_COUNTERS = tuple(f.name for f in fields(TSEStats) if f.type == "int")


@dataclass(frozen=True)
class ReplayRecord:
    """One exact-plane replay of a trace under one TSE configuration.

    Both windows come from the one replay.  Every counter is an additive
    int, so the warm-up-0 window is the warm-up counters plus the measured
    ones; the stream-length histogram and the traffic counts already span
    the whole trace.  Each view equals its standalone run's and is shared:
    treat it as read-only.
    """

    #: After ``warmup_accesses``, with traffic attached when accounted.
    measured: TSEStats
    #: From the first access, as a bare warm-up-0 run reports it (no traffic).
    whole: TSEStats
    #: The resolved interconnect traffic was accounted on, or None.
    interconnect: Optional[InterconnectConfig]
    warmup_accesses: int
    #: :attr:`TSESimulator.outcome_codes` / ``outcome_leads`` of the replay.
    outcome_codes: array
    outcome_leads: array


def replay_record(
    trace: ChunkedTrace,
    tse_config: TSEConfig,
    interconnect: Optional[InterconnectConfig] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> ReplayRecord:
    """The trace's replay record for ``tse_config``, replaying only when needed.

    Memoized in ``trace.memo`` and keyed by the configuration (a trace
    grown by ``append_chunk`` replays afresh), the way :func:`trace_codes`
    is.  Any record serves a request without ``interconnect`` (outcomes
    and the warm-up-0 window).  A traffic request is served only by a
    record that accounted traffic on the same interconnect with the same
    warm-up boundary.  Otherwise one exact replay records outcomes,
    accounts traffic if asked, keeps both windows and replaces the record.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    memo = trace.memo.setdefault("replay_records", {})
    warmup = int(len(trace) * warmup_fraction)
    record = memo.get(tse_config)
    if record is None or interconnect is not None and (
        record.interconnect != interconnect or record.warmup_accesses != warmup
    ):
        simulator = TSESimulator(
            trace.num_nodes, tse_config, account_traffic=interconnect is not None,
            interconnect_config=interconnect, record_outcomes=True,
        )
        measured = simulator.run(trace, warmup_fraction)
        warm = simulator.warmup_stats
        whole = replace(measured, traffic=None, **{
            name: getattr(warm, name) + getattr(measured, name)
            for name in _COUNTERS
        })
        record = memo[tse_config] = ReplayRecord(
            measured, whole, interconnect, warmup,
            simulator.outcome_codes, simulator.outcome_leads,
        )
    return record


@dataclass(frozen=True)
class BareRecord:
    """One bare exact-plane replay of a trace, and whether its sizes bound it.

    ``evicted`` says whether the SVB ever evicted a block for lack of room,
    and ``high_water`` is the largest CMOB append count of any node: a CMOB
    of at least that capacity never wraps.
    """

    stats: TSEStats
    svb_entries: int
    evicted: bool
    cmob_capacity: int
    high_water: int

    def serves(self, svb_entries: int, cmob_capacity: int) -> bool:
        """True when a replay with these sizes takes every step this one took."""
        return (
            svb_entries == self.svb_entries
            or not self.evicted and svb_entries > self.svb_entries
        ) and (
            cmob_capacity == self.cmob_capacity
            or self.high_water <= self.cmob_capacity and cmob_capacity >= self.high_water
        )


def _bare_replay(trace: ChunkedTrace, config: TSEConfig, warmup_fraction: float) -> TSEStats:
    """A bare exact replay's statistics, replaying only where the sizes bind.

    Memoized in ``trace.memo`` and keyed by the warm-up access count and
    every configuration field but the SVB and CMOB capacities.  A record
    serves the request when :meth:`BareRecord.serves` holds; otherwise one
    replay adds a record (see the module docstring).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    memo = trace.memo.setdefault("bare_replays", {})
    warmup = int(len(trace) * warmup_fraction)
    records = memo.setdefault(
        (warmup, replace(config, svb_entries=1, cmob_capacity=1)), []
    )
    svb_entries, cmob_capacity = config.svb_entries, config.cmob_capacity
    for record in records:
        if record.serves(svb_entries, cmob_capacity):
            return record.stats
    simulator = TSESimulator(trace.num_nodes, tse_config=config)
    stats = simulator.run(trace, warmup_fraction=warmup_fraction)
    records.append(BareRecord(
        stats, svb_entries, simulator.svb_evictions > 0, cmob_capacity,
        max(node.cmob._appended for node in simulator.tse.nodes),
    ))
    return stats


def run_tse_on_trace(
    trace: ChunkedTrace,
    tse_config: Optional[TSEConfig] = None,
    account_traffic: bool = False,
    interconnect_config: Optional[InterconnectConfig] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    mode: str = "exact",
) -> TSEStats:
    """Convenience wrapper: build a simulator for the trace and run it.

    Defaults to the experiment harness's shared
    :data:`~repro.common.config.DEFAULT_WARMUP_FRACTION` warm-up window; pass
    ``warmup_fraction=0.0`` to measure from the first access.  ``mode``
    selects the replay plane (see :class:`TSESimulator`).

    A traffic-accounted exact run is the measured window of the trace's
    :func:`replay_record`, so a later ``TimingSimulator.compare`` under the
    same configuration replays nothing.  A bare exact run is served by the
    trace's bare records (:func:`_bare_replay`), so a Fig. 9 or Fig. 10
    ladder replays only the sizes that bind; a replay record never serves
    it.  Both results are shared, read-only.  A fast-plane run replays
    afresh.
    """
    config = tse_config if tse_config is not None else TSEConfig.paper_default()
    if mode == "exact":
        if not account_traffic:
            return _bare_replay(trace, config, warmup_fraction)
        interconnect = interconnect_config if interconnect_config is not None else (
            TSESimulator._default_interconnect(trace.num_nodes)
        )
        return replay_record(trace, config, interconnect, warmup_fraction).measured
    simulator = TSESimulator(
        trace.num_nodes,
        tse_config=config,
        account_traffic=account_traffic,
        interconnect_config=interconnect_config,
        mode=mode,
    )
    return simulator.run(trace, warmup_fraction=warmup_fraction)

