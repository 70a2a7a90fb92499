"""Per-node processor timing model.

The model is an *interval* model of an out-of-order core, not a pipeline
simulator: the core retires non-memory work at a fixed base IPC, issues
misses as soon as they are encountered, and overlaps independent misses
subject to three limits that bound memory-level parallelism:

* **dependence** — an access marked ``dependent`` (pointer chasing) cannot
  issue until the node's previous off-chip miss has completed;
* **MSHRs** — at most ``l2.mshrs`` misses may be outstanding;
* **ROB window** — a miss more than ``rob_entries`` instructions younger than
  the oldest outstanding miss forces that oldest miss to retire first.

Stalls accumulate into two buckets — coherent-read stalls (what TSE attacks)
and other stalls — matching Figure 14's execution-time breakdown.  The model
also measures consumption MLP (the average number of outstanding coherent
read misses when at least one is outstanding), reported in Table 3.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.node.latency import LatencyModel
from repro.tse.simulator import Outcome

#: One in-flight off-chip miss: ``(instruction, completion, is_consumption)``.
_Miss = Tuple[int, float, bool]
_instruction_of = itemgetter(0)
_completion_of = itemgetter(1)
_NEVER = float("inf")


def _settle(
    outstanding: List[_Miss], clock: float, latest: float
) -> Tuple[List[_Miss], float]:
    """Drop the misses completed by ``clock``; return the rest and the
    earliest remaining completion (infinity when none remain).

    ``latest`` bounds every outstanding completion from above, so once the
    clock has reached it nothing remains.
    """
    if latest <= clock:
        return [], _NEVER
    pending = [miss for miss in outstanding if miss[1] > clock]
    return pending, min([miss[1] for miss in pending], default=_NEVER)


@dataclass
class NodeTimingResult:
    """Execution-time breakdown for one node, in processor cycles."""

    node: int = 0
    busy_cycles: float = 0.0
    coherent_read_stall_cycles: float = 0.0
    other_stall_cycles: float = 0.0
    #: Consumptions whose latency was fully hidden (SVB hit, data already there).
    fully_covered: int = 0
    #: Consumptions whose latency was partially hidden (streamed data in flight).
    partially_covered: int = 0
    #: Consumptions not covered at all.
    uncovered: int = 0
    #: Sum of (outstanding consumptions x time) for MLP measurement.
    mlp_area: float = 0.0
    #: Total time during which at least one consumption was outstanding.
    mlp_busy_time: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.busy_cycles + self.coherent_read_stall_cycles + self.other_stall_cycles


class ProcessorModel:
    """Interval-based timing walk over one node's labelled access sequence."""

    #: Spin reads burn issue slots but their latency is synchronisation time,
    #: charged to "other stalls" at a discounted rate (the spin overlaps the
    #: remote lock holder's critical section).
    SPIN_STALL_FRACTION = 0.25

    def __init__(self, system: SystemConfig, latency: Optional[LatencyModel] = None) -> None:
        self.system = system
        self.latency = latency if latency is not None else LatencyModel(system)
        self._ipc = system.processor.base_ipc
        self._rob = system.processor.rob_entries
        self._mshrs = system.l2.mshrs

    def run_node(
        self,
        node: int,
        timestamps: Sequence[int],
        deps: Sequence[int],
        codes: Sequence[int],
        leads: Sequence[int],
        tse_enabled: bool = False,
    ) -> NodeTimingResult:
        """Walk one node's accesses with their outcome labels.

        Args:
            node: Node id (for the result record).
            timestamps: The node's per-access retire times, in program order.
            deps: Parallel dependent flags (nonzero = pointer chase).
            codes: Parallel :class:`~repro.tse.simulator.Outcome` codes
                produced by the functional simulator for the same accesses.
            leads: Parallel lead counts; meaningful only for SVB hits.
            tse_enabled: True when the labels come from a TSE run (SVB hits
                appear and partial coverage must be computed).
        """
        if not len(timestamps) == len(deps) == len(codes) == len(leads):
            raise ValueError("timestamps, deps, codes and leads must be parallel columns")

        # Latencies are pure functions of the configuration: read them once.
        latency = self.latency
        coherent_latency = latency.coherent_read_cycles
        remote_latency = latency.remote_memory_cycles
        fetch = latency.stream_fetch_cycles + latency.block_serialization_cycles
        spin_stall = coherent_latency * self.SPIN_STALL_FRACTION
        ipc = self._ipc
        rob = self._rob
        mshrs = self._mshrs
        other_code = int(Outcome.OTHER)
        write_code = int(Outcome.WRITE)
        spin_code = int(Outcome.SPIN)
        svb_hit_code = int(Outcome.SVB_HIT)
        consumption_code = int(Outcome.CONSUMPTION)

        # Result fields accumulate in locals, in program order.
        busy_cycles = 0.0
        coherent_stall = 0.0
        other_stall = 0.0
        fully_covered = partially_covered = uncovered = 0
        mlp_area = 0.0
        mlp_busy_time = 0.0

        clock = 0.0
        previous_timestamp = 0
        # In instruction order; ``next_done`` is the earliest completion, so
        # a drain is due only once the clock has reached it.
        outstanding: List[_Miss] = []
        next_done = _NEVER
        last_miss_completion = 0.0
        # MLP bookkeeping: each consumption is outstanding for exactly its
        # latency; mlp_busy_time is the union of those intervals, tracked
        # incrementally because issues happen in increasing clock order.
        mlp_cover_end = 0.0
        # Wall-clock at which each of the node's earlier accesses was reached;
        # used to reconstruct when a streamed block's fetch was issued.
        wallclock_history: List[float] = []
        reached = wallclock_history.append

        for timestamp, dependent, outcome, lead in zip(timestamps, deps, codes, leads):
            # Busy time for the instructions since the previous access.
            gap_instructions = timestamp - previous_timestamp
            if gap_instructions < 0:
                gap_instructions = 0
            busy = gap_instructions / ipc
            clock += busy
            busy_cycles += busy
            previous_timestamp = timestamp
            reached(clock)
            if next_done <= clock:
                outstanding, next_done = _settle(outstanding, clock, last_miss_completion)

            if outcome == other_code or outcome == write_code:
                # Cache hits retire at full speed; write latency is hidden by
                # the relaxed consistency implementation (Section 4).
                continue

            if outcome == spin_code:
                other_stall += spin_stall
                continue

            if outcome == svb_hit_code:
                # The block's fetch was issued `lead` node-local accesses ago;
                # its arrival is that point's wall clock plus the stream fetch
                # latency.  If it has already arrived the consumption is fully
                # hidden, otherwise the remainder stalls the processor
                # (partial coverage, Table 3).
                request_index = len(wallclock_history) - 1 - lead
                if 0 <= request_index < len(wallclock_history):
                    request_clock = wallclock_history[request_index]
                else:
                    request_clock = clock
                arrival = request_clock + fetch
                remaining = arrival - clock
                if remaining <= 0:
                    fully_covered += 1
                else:
                    partially_covered += 1
                    if dependent:
                        # Pointer-chasing code needs the data immediately.
                        coherent_stall += remaining
                        clock = arrival
                    else:
                        # Independent consumers keep executing; the in-flight
                        # streamed block behaves like an outstanding miss and
                        # its residual latency overlaps with other work.
                        insort(outstanding, (timestamp, arrival, True), key=_instruction_of)
                        if arrival < next_done:
                            next_done = arrival
                        if arrival > last_miss_completion:
                            last_miss_completion = arrival
                continue

            # --- true off-chip misses ----------------------------------------
            is_consumption = outcome == consumption_code
            miss_latency = coherent_latency if is_consumption else remote_latency

            # Dependence: pointer-chasing accesses wait for the previous miss.
            if dependent and last_miss_completion > clock:
                if is_consumption:
                    coherent_stall += last_miss_completion - clock
                else:
                    other_stall += last_miss_completion - clock
                clock = last_miss_completion
                if next_done <= clock:
                    outstanding, next_done = _settle(outstanding, clock, last_miss_completion)

            # MSHR limit: wait for the earliest completion.
            while len(outstanding) >= mshrs:
                wait = next_done - clock
                if wait > 0:
                    coherent_stall += wait
                    clock = next_done
                outstanding, next_done = _settle(outstanding, clock, last_miss_completion)

            # ROB window: the oldest outstanding miss must retire before an
            # instruction more than `rob` younger can issue.
            while outstanding and timestamp - outstanding[0][0] > rob:
                _, oldest_completion, oldest_is_consumption = outstanding[0]
                wait = oldest_completion - clock
                if wait > 0:
                    if oldest_is_consumption:
                        coherent_stall += wait
                    else:
                        other_stall += wait
                    clock = oldest_completion
                outstanding, next_done = _settle(outstanding, clock, last_miss_completion)

            completion = clock + miss_latency
            insort(outstanding, (timestamp, completion, is_consumption), key=_instruction_of)
            if completion < next_done:
                next_done = completion
            if completion > last_miss_completion:
                last_miss_completion = completion
            if is_consumption:
                uncovered += 1
                # MLP: this consumption is outstanding for exactly its
                # latency; the busy-time denominator is the union of such
                # intervals.
                mlp_area += miss_latency
                covered_from = clock if clock > mlp_cover_end else mlp_cover_end
                if completion > covered_from:
                    mlp_busy_time += completion - covered_from
                if completion > mlp_cover_end:
                    mlp_cover_end = completion
            # Dependent misses stall the processor for their full latency
            # (the next instruction needs the data).
            if dependent:
                if is_consumption:
                    coherent_stall += completion - clock
                else:
                    other_stall += completion - clock
                clock = completion
                outstanding, next_done = _settle(outstanding, clock, last_miss_completion)

        # Drain: the remaining outstanding misses stall the end of the interval.
        for _, completion, is_consumption in sorted(outstanding, key=_completion_of):
            wait = completion - clock
            if wait > 0:
                if is_consumption:
                    coherent_stall += wait
                else:
                    other_stall += wait
                clock = completion
        return NodeTimingResult(
            node=node,
            busy_cycles=busy_cycles,
            coherent_read_stall_cycles=coherent_stall,
            other_stall_cycles=other_stall,
            fully_covered=fully_covered,
            partially_covered=partially_covered,
            uncovered=uncovered,
            mlp_area=mlp_area,
            mlp_busy_time=mlp_busy_time,
        )
