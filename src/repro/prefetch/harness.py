"""Trace-driven evaluation harness for the baseline prefetchers.

Replays a trace against its memoized coherence code columns (the same
classification of consumptions the TSE simulator reads), gives each node
its own prefetcher instance and SVB-sized prefetch buffer, and reports
coverage and discards on the same definitions as the TSE simulator so
Figure 12's bars are directly comparable.  A buffer hit installs the copy
the base system's miss would, so the columns hold with prefetching on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.coherence.protocol import READ_COHERENT, READ_SPIN_COHERENT, WRITE, trace_codes
from repro.common.chunk import ChunkedTrace
from repro.common.config import DEFAULT_WARMUP_FRACTION
from repro.common.stats import ratio
from repro.common.types import TYPE_SPIN_READ
from repro.prefetch.base import PrefetchBuffer, Prefetcher


@dataclass
class PrefetcherStats:
    """Coverage / discard results for one prefetcher on one trace."""

    technique: str = ""
    workload: str = ""
    buffer_hits: int = 0
    remaining_consumptions: int = 0
    blocks_prefetched: int = 0
    discarded_blocks: int = 0
    spin_misses: int = 0

    @property
    def total_consumptions(self) -> int:
        return self.buffer_hits + self.remaining_consumptions

    @property
    def coverage(self) -> float:
        return ratio(self.buffer_hits, self.total_consumptions)

    @property
    def discard_rate(self) -> float:
        return ratio(self.discarded_blocks, self.total_consumptions)

    @property
    def accuracy(self) -> float:
        return ratio(self.buffer_hits, self.blocks_prefetched)

    def as_dict(self) -> Dict[str, float]:
        return {
            "technique": self.technique,
            "workload": self.workload,
            "coverage": self.coverage,
            "discard_rate": self.discard_rate,
            "accuracy": self.accuracy,
            "total_consumptions": self.total_consumptions,
            "blocks_prefetched": self.blocks_prefetched,
        }


def evaluate_prefetcher(
    trace: ChunkedTrace,
    prefetcher_factory: Callable[[], Prefetcher],
    buffer_entries: int = 32,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> PrefetcherStats:
    """Run one baseline prefetcher over a trace.

    Args:
        trace: The interleaved multi-node access trace; its packed columns
            and code columns are replayed.
        prefetcher_factory: Builds a fresh per-node prefetcher.
        buffer_entries: Prefetch-buffer capacity (32 = the 2 KB SVB).
        warmup_fraction: Fraction of the trace excluded from statistics
            (state still trains during warm-up).  Defaults to the shared
            :data:`~repro.common.config.DEFAULT_WARMUP_FRACTION` so TSE and
            baseline prefetchers are measured over the same window.
    """
    num_nodes = trace.num_nodes
    prefetchers = [prefetcher_factory() for _ in range(num_nodes)]
    buffers = [PrefetchBuffer(buffer_entries) for _ in range(num_nodes)]
    stats = PrefetcherStats(technique=prefetchers[0].name, workload=trace.name)
    warmup_count = int(len(trace) * warmup_fraction)
    # Buffer fill/discard counters at the measurement boundary, so warm-up
    # activity is excluded from the reported rates.
    baseline_fills = [0] * num_nodes
    baseline_discards = [0] * num_nodes
    write = WRITE
    spin_read = TYPE_SPIN_READ

    # A write probes each buffer's entries before calling invalidate: nearly
    # every buffer misses, and the probe is cheaper than the call.
    resident = [(buffer, buffer._entries) for buffer in buffers]

    index = 0
    for chunk, codes in zip(trace.chunks(), trace_codes(trace)):
        for code, node, address, type_code, pc in zip(
            codes, chunk.nodes.tolist(), chunk.blocks.tolist(), chunk.types.tolist(),
            chunk.pcs.tolist(),
        ):
            if index == warmup_count and warmup_count > 0:
                stats = PrefetcherStats(technique=prefetchers[0].name, workload=trace.name)
                baseline_fills = [b.fills for b in buffers]
                baseline_discards = [b.discards for b in buffers]
            index += 1

            if code == write:
                # Writes invalidate prefetched copies everywhere (clean-only
                # buffers).
                for buffer, entries in resident:
                    if address in entries:
                        buffer.invalidate(address)
                continue

            if type_code != spin_read and buffers[node].consume(address):
                stats.buffer_hits += 1
                for candidate in prefetchers[node].on_hit(address):
                    if candidate > 0:
                        buffers[node].insert(candidate)
                continue

            if code == READ_COHERENT:
                stats.remaining_consumptions += 1
                for candidate in prefetchers[node].on_consumption(address, pc):
                    if candidate > 0:
                        buffers[node].insert(candidate)
            elif code == READ_SPIN_COHERENT:
                stats.spin_misses += 1

    for node in range(num_nodes):
        buffers[node].drain()
        stats.blocks_prefetched += buffers[node].fills - baseline_fills[node]
        stats.discarded_blocks += buffers[node].discards - baseline_discards[node]
    return stats
