"""DSM timing simulation: execution-time breakdown, speedups, timeliness.

Mirrors the paper's methodology split: the functional trace-driven simulator
(:mod:`repro.tse.simulator`) decides *which* misses TSE eliminates, and this
timing model decides *how much time* that saves, by replaying each node's
labelled access sequence through the interval-based processor model with the
Table 1 latencies.  The base system's labels need no TSE at all: they are
the coherence classification of each access, read from the trace's memoized
code columns.  The TSE system's labels are the outcome columns of the
trace's exact-plane replay record (:func:`~repro.tse.simulator.replay_record`),
which a traffic-accounted replay of the same configuration (Figure 11)
already holds.  Both the labelling and the walk read the trace's packed
columns.

Outputs map directly onto the paper's results:

* Figure 14 (left): normalized execution-time breakdown (busy / other stalls
  / coherent-read stalls) for the base system and TSE;
* Figure 14 (right): TSE speedup over the base system;
* Table 3: consumption MLP in the base system, plus full and partial
  coverage fractions under TSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.protocol import trace_codes
from repro.common.chunk import ChunkedTrace
from repro.common.config import SystemConfig, TSEConfig
from repro.common.stats import ratio
from repro.node.latency import LatencyModel
from repro.node.processor import NodeTimingResult, ProcessorModel
from repro.tse.simulator import Outcome, TSEStats, replay_record

#: Coherence code (:func:`~repro.coherence.protocol.coherence_codes`) ->
#: base-system outcome: a hit, a consumption, a spin coherent miss, a cold
#: miss, a write.  A 256-byte ``bytes.translate`` table.
_BASE_OUTCOME_OF_CODE = bytes((
    Outcome.OTHER, Outcome.CONSUMPTION, Outcome.SPIN, Outcome.COLD_MISS, Outcome.WRITE,
)).ljust(256, b"\0")


@dataclass
class TimingResult:
    """Machine-level timing summary for one configuration (base or TSE)."""

    label: str = ""
    workload: str = ""
    per_node: List[NodeTimingResult] = field(default_factory=list)

    @property
    def busy_cycles(self) -> float:
        return sum(n.busy_cycles for n in self.per_node)

    @property
    def coherent_read_stall_cycles(self) -> float:
        return sum(n.coherent_read_stall_cycles for n in self.per_node)

    @property
    def other_stall_cycles(self) -> float:
        return sum(n.other_stall_cycles for n in self.per_node)

    @property
    def total_cycles(self) -> float:
        return sum(n.total_cycles for n in self.per_node)

    def breakdown(self) -> Dict[str, float]:
        """Normalized execution-time breakdown (Figure 14 left)."""
        total = self.total_cycles
        if total <= 0:
            return {"busy": 0.0, "other_stalls": 0.0, "coherent_read_stalls": 0.0}
        return {
            "busy": self.busy_cycles / total,
            "other_stalls": self.other_stall_cycles / total,
            "coherent_read_stalls": self.coherent_read_stall_cycles / total,
        }

    @property
    def consumption_mlp(self) -> float:
        """Machine-average consumption MLP (Table 3)."""
        area = sum(n.mlp_area for n in self.per_node)
        busy = sum(n.mlp_busy_time for n in self.per_node)
        return ratio(area, busy, default=1.0)

    @property
    def fully_covered(self) -> int:
        return sum(n.fully_covered for n in self.per_node)

    @property
    def partially_covered(self) -> int:
        return sum(n.partially_covered for n in self.per_node)

    @property
    def uncovered(self) -> int:
        return sum(n.uncovered for n in self.per_node)

    @property
    def total_consumptions(self) -> int:
        return self.fully_covered + self.partially_covered + self.uncovered

    @property
    def full_coverage(self) -> float:
        """Fraction of consumptions completely hidden (Table 3 "Full Cov.")."""
        return ratio(self.fully_covered, self.total_consumptions)

    @property
    def partial_coverage(self) -> float:
        """Fraction of consumptions partially hidden (Table 3 "Partial Cov.")."""
        return ratio(self.partially_covered, self.total_consumptions)


class TimingSimulator:
    """Runs the base system and TSE over one trace and compares them."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        tse_config: Optional[TSEConfig] = None,
    ) -> None:
        self.system = system if system is not None else SystemConfig.isca2005()
        self.tse_config = tse_config if tse_config is not None else TSEConfig.paper_default()
        self.latency = LatencyModel(self.system)
        self._processor = ProcessorModel(self.system, self.latency)

    # ---------------------------------------------------------------- plumbing
    def _label_trace(
        self, trace: ChunkedTrace, tse_enabled: bool
    ) -> Tuple[Optional[TSEStats], Sequence[int], Optional[Sequence[int]]]:
        """Label each access with its outcome code (and, under TSE, its lead).

        The base system is the coherence classification alone: the trace's
        memoized code columns (:func:`~repro.coherence.protocol.trace_codes`)
        translated to outcome codes, every lead 0 (returned as None), no
        functional stats.  Under TSE, the labels and the warm-up-0 stats
        come from the trace's exact-plane replay record for this
        configuration (:func:`~repro.tse.simulator.replay_record`), which a
        Figure 11 replay or an earlier ``compare()`` may already hold.
        """
        if not tse_enabled:
            return None, b"".join(trace_codes(trace)).translate(_BASE_OUTCOME_OF_CODE), None
        record = replay_record(trace, self.tse_config)
        return record.whole, record.outcome_codes, record.outcome_leads

    def _run_timing(
        self,
        trace: ChunkedTrace,
        codes: Sequence[int],
        leads: Optional[Sequence[int]],
        tse_enabled: bool,
        label: str,
    ) -> TimingResult:
        """Split the labelled trace into per-node columns and walk each node.

        ``leads`` is None when every lead is 0 (the base system).
        """
        columns: List[Tuple[List[int], List[int], List[int], List[int]]] = [
            ([], [], [], []) for _ in range(trace.num_nodes)
        ]
        start = 0
        for chunk in trace.chunks():
            stop = start + len(chunk)
            for node, timestamp, dep, code, lead in zip(
                chunk.nodes, chunk.timestamps, chunk.deps, codes[start:stop],
                repeat(0) if leads is None else leads[start:stop],
            ):
                timestamps, deps, node_codes, node_leads = columns[node]
                timestamps.append(timestamp)
                deps.append(dep)
                node_codes.append(code)
                node_leads.append(lead)
            start = stop
        result = TimingResult(label=label, workload=trace.name)
        for node, (timestamps, deps, node_codes, node_leads) in enumerate(columns):
            result.per_node.append(
                self._processor.run_node(
                    node, timestamps, deps, node_codes, node_leads, tse_enabled
                )
            )
        return result

    # --------------------------------------------------------------------- API
    def run_base(self, trace: ChunkedTrace) -> TimingResult:
        """Time the baseline system (no TSE) on a trace.

        Its labels are the coherence classification of each access, read
        from the trace's memoized code columns.
        """
        _, codes, leads = self._label_trace(trace, tse_enabled=False)
        return self._run_timing(trace, codes, leads, tse_enabled=False, label="base")

    def run_tse(self, trace: ChunkedTrace) -> Tuple[TimingResult, TSEStats]:
        """Time the TSE-equipped system; also returns the functional stats."""
        stats, codes, leads = self._label_trace(trace, tse_enabled=True)
        timing = self._run_timing(trace, codes, leads, tse_enabled=True, label="tse")
        return timing, stats

    def compare(self, trace: ChunkedTrace) -> "TimingComparison":
        """Run base and TSE on the same trace and package the comparison."""
        base = self.run_base(trace)
        tse, functional = self.run_tse(trace)
        return TimingComparison(workload=trace.name, base=base, tse=tse, functional=functional)


@dataclass
class TimingComparison:
    """Base-vs-TSE timing for one workload (one Figure 14 group)."""

    workload: str
    base: TimingResult
    tse: TimingResult
    functional: TSEStats

    @property
    def speedup(self) -> float:
        """TSE speedup over the base system (Figure 14 right)."""
        return ratio(self.base.total_cycles, self.tse.total_cycles, default=1.0)

    def normalized_breakdowns(self) -> Dict[str, Dict[str, float]]:
        """Both breakdowns normalized to the base system's total time."""
        base_total = self.base.total_cycles
        if base_total <= 0:
            return {"base": self.base.breakdown(), "tse": self.tse.breakdown()}
        def scaled(result: TimingResult) -> Dict[str, float]:
            return {
                "busy": result.busy_cycles / base_total,
                "other_stalls": result.other_stall_cycles / base_total,
                "coherent_read_stalls": result.coherent_read_stall_cycles / base_total,
            }
        return {"base": scaled(self.base), "tse": scaled(self.tse)}

    def table3_row(
        self, trace_coverage: Optional[float] = None, lookahead: int = 8
    ) -> Dict[str, float]:
        """One row of Table 3 for this workload."""
        return {
            "workload": self.workload,
            "trace_coverage": trace_coverage if trace_coverage is not None else self.functional.coverage,
            "mlp": self.base.consumption_mlp,
            "lookahead": float(lookahead),
            "full_coverage": self.tse.full_coverage,
            "partial_coverage": self.tse.partial_coverage,
            "speedup": self.speedup,
        }
