"""Interconnect and pin bandwidth overhead accounting (Figure 11, Section 5.4).

Figure 11 reports, per workload, the interconnect *bisection* bandwidth
consumed by TSE overhead traffic (streamed addresses, stream requests, CMOB
pointer updates, and erroneously streamed data blocks), in GB/s, annotated
with the ratio of overhead traffic to baseline traffic.  Section 5.4
additionally quantifies the processor pin-bandwidth overhead of writing the
CMOB to memory (4-7 % for scientific, <1 % for commercial workloads).

The trace-driven simulator has no wall-clock; elapsed time is estimated from
the per-node retired-instruction counts and the configured base IPC, which is
sufficient to express traffic volumes as bandwidths of the right magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coherence.messages import (
    CMOB_POINTER_BYTES,
    CONTROL_PAYLOAD_BYTES,
    DATA_PAYLOAD_BYTES,
)
from repro.common.chunk import ChunkedTrace
from repro.common.config import SystemConfig
from repro.common.stats import ratio
from repro.tse.simulator import TSEStats


@dataclass
class BandwidthResult:
    """Bandwidth overhead summary for one workload."""

    workload: str = ""
    #: TSE overhead traffic crossing the bisection, bytes.
    overhead_bisection_bytes: float = 0.0
    #: Baseline coherence traffic crossing the bisection, bytes.
    baseline_bisection_bytes: float = 0.0
    #: Estimated execution time of the measured interval, ns.
    elapsed_ns: float = 0.0
    #: Overhead bisection bandwidth, GB/s (the Figure 11 bar).
    overhead_bandwidth_gbps: float = 0.0
    #: Overhead traffic as a fraction of baseline traffic (the annotation).
    overhead_ratio: float = 0.0
    #: CMOB append traffic as a fraction of total off-chip pin traffic.
    pin_overhead_ratio: float = 0.0
    #: Overhead bandwidth as a fraction of the configured peak bisection bandwidth.
    fraction_of_peak: float = 0.0


def estimate_elapsed_ns(trace: ChunkedTrace, system: SystemConfig) -> float:
    """Estimate the trace's execution time from per-node instruction counts.

    Nodes execute concurrently, so elapsed time follows the largest per-node
    retired-instruction count at the configured base IPC.  It reads the
    packed ``timestamps`` columns.
    """
    columns = [chunk.timestamps for chunk in trace.chunks()]
    # The trailing accesses carry the final per-node timestamps; scanning a
    # bounded suffix finds the maximum without touching the whole trace.
    max_instructions = 0
    left = 4096
    for column in reversed(columns):
        if left <= 0:
            break
        max_instructions = max(max_instructions, max(column[-left:], default=0))
        left -= len(column)
    if max_instructions == 0:
        max_instructions = max((max(column, default=0) for column in columns), default=0)
    cycles = max_instructions / system.processor.base_ipc
    return cycles / system.clock_ghz


def bandwidth_overhead(
    stats: TSEStats,
    trace: ChunkedTrace,
    system: Optional[SystemConfig] = None,
) -> BandwidthResult:
    """Compute Figure 11's bandwidth overhead from a traffic-accounted TSE run.

    ``stats`` must come from a :class:`TSESimulator` created with
    ``account_traffic=True`` (its ``traffic`` field holds the byte volumes).

    The two halves cover different windows.  The traffic volumes span the
    whole trace, warm-up included (the simulator's warm-up reset leaves its
    traffic accountant running), and are divided by the whole trace's
    estimated time.  ``pin_overhead_ratio`` uses the TSE counters, which
    cover only the measured window after warm-up.
    """
    system = system if system is not None else SystemConfig.isca2005()
    if stats.traffic is None:
        raise ValueError("TSEStats has no traffic accounting; run with account_traffic=True")

    elapsed_ns = estimate_elapsed_ns(trace, system)
    overhead_bisection = stats.traffic.get("overhead.bisection_bytes", 0.0)
    baseline_bisection = stats.traffic.get("baseline.bisection_bytes", 0.0)
    overhead_total = stats.traffic.get("overhead.total_bytes", 0.0)
    baseline_total = stats.traffic.get("baseline.total_bytes", 0.0)

    overhead_gbps = overhead_bisection / elapsed_ns if elapsed_ns > 0 else 0.0

    # Pin bandwidth: CMOB appends are packetised and written to local memory;
    # each consumption (or useful streamed hit) adds one 6-byte entry, and
    # the packetised write moves one block-sized line per ~10 entries.
    cmob_entries = stats.svb_hits + stats.remaining_consumptions
    cmob_bytes = cmob_entries * CMOB_POINTER_BYTES
    # Off-chip pin traffic of the baseline node: every miss moves a data
    # block plus control, plus write-miss fills.
    offchip_events = (
        stats.remaining_consumptions
        + stats.svb_hits
        + stats.cold_misses
        + stats.writes
    )
    pin_bytes = offchip_events * (DATA_PAYLOAD_BYTES + CONTROL_PAYLOAD_BYTES)
    pin_overhead = ratio(cmob_bytes, pin_bytes)

    return BandwidthResult(
        workload=stats.workload,
        overhead_bisection_bytes=overhead_bisection,
        baseline_bisection_bytes=baseline_bisection,
        elapsed_ns=elapsed_ns,
        overhead_bandwidth_gbps=overhead_gbps,
        overhead_ratio=ratio(overhead_total, baseline_total),
        pin_overhead_ratio=pin_overhead,
        fraction_of_peak=ratio(
            overhead_gbps, system.interconnect.bisection_bandwidth_gbps
        ),
    )
