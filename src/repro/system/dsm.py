"""High-level facade: one object that runs a workload end to end.

:class:`DSMSystem` is the public entry point most library users want: give it
a workload name (or a pre-generated trace) and it runs the functional TSE
analysis and, optionally, the timing comparison, returning plain dataclasses
with the paper's metrics.  The examples and the experiment harness are built
on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.chunk import ChunkedTrace
from repro.common.config import (
    DEFAULT_WARMUP_FRACTION,
    PAPER_LOOKAHEAD,
    SystemConfig,
    TSEConfig,
)
from repro.system.timing import TimingComparison, TimingSimulator
from repro.tse.simulator import TSESimulator, TSEStats
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams


@dataclass
class SystemComparison:
    """Everything one workload run produces: functional stats plus timing."""

    workload: str
    tse_stats: TSEStats
    timing: Optional[TimingComparison] = None


class DSMSystem:
    """A 16-node (by default) DSM with the Temporal Streaming Engine attached."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        tse_config: Optional[TSEConfig] = None,
    ) -> None:
        self.system = system if system is not None else SystemConfig.isca2005()
        self.tse_config = tse_config if tse_config is not None else TSEConfig.paper_default()

    # ------------------------------------------------------------------ traces
    def generate_trace(
        self,
        workload: str,
        target_accesses: int = 200_000,
        seed: int = 42,
        scale: float = 1.0,
    ) -> ChunkedTrace:
        """Generate a trace for a named workload on this system's node count."""
        params = WorkloadParams(
            num_nodes=self.system.num_nodes,
            seed=seed,
            scale=scale,
            target_accesses=target_accesses,
        )
        return get_workload(workload, params).generate_chunked()

    def tse_config_for(self, workload: str) -> TSEConfig:
        """The paper's TSE configuration with the per-workload lookahead (Table 3)."""
        lookahead = PAPER_LOOKAHEAD.get(workload, self.tse_config.stream_lookahead)
        return self.tse_config.with_(stream_lookahead=lookahead)

    # -------------------------------------------------------------------- runs
    def analyze(
        self,
        trace: ChunkedTrace,
        tse_config: Optional[TSEConfig] = None,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
        account_traffic: bool = False,
    ) -> TSEStats:
        """Trace-driven TSE analysis (coverage / discards / traffic)."""
        config = tse_config if tse_config is not None else self.tse_config_for(trace.name)
        simulator = TSESimulator(
            trace.num_nodes,
            tse_config=config,
            account_traffic=account_traffic,
            interconnect_config=self.system.interconnect if account_traffic else None,
        )
        return simulator.run(trace, warmup_fraction=warmup_fraction)

    def time(self, trace: ChunkedTrace, tse_config: Optional[TSEConfig] = None) -> TimingComparison:
        """Timing comparison (base vs. TSE) for one trace."""
        config = tse_config if tse_config is not None else self.tse_config_for(trace.name)
        simulator = TimingSimulator(self.system, config)
        return simulator.compare(trace)

    def run_workload(
        self,
        workload: str,
        target_accesses: int = 200_000,
        seed: int = 42,
        with_timing: bool = True,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    ) -> SystemComparison:
        """End-to-end convenience: generate, analyze, and (optionally) time."""
        trace = self.generate_trace(workload, target_accesses=target_accesses, seed=seed)
        stats = self.analyze(trace, warmup_fraction=warmup_fraction)
        timing = self.time(trace) if with_timing else None
        return SystemComparison(workload=workload, tse_stats=stats, timing=timing)
