"""Figure 6: opportunity to exploit temporal correlation.

Cumulative fraction of consumptions whose temporal correlation distance is
within +/-d, for d = 1..16, per workload.  Scientific applications should be
near 100 % at distance 1; commercial workloads above 40 % at distance 1 and
roughly 49-63 % by distance 8.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.correlation import cumulative_correlation, temporal_correlation
from repro.coherence.protocol import trace_consumptions
from repro.experiments.runner import (
    DEFAULT_TARGET_ACCESSES,
    DEFAULT_WARMUP_FRACTION,
    WORKLOADS,
    SweepSpec,
    run_sweep,
    sweep_main,
    trace_for,
)

DISTANCES: Sequence[int] = tuple(range(1, 17))


def _point(
    workload: str,
    _config: object,
    *,
    target_accesses: int,
    seed: int,
    distances: Sequence[int],
) -> Dict[str, object]:
    """Correlation analysis for one workload (one sweep point)."""
    trace = trace_for(workload, target_accesses, seed)
    correlation = temporal_correlation(
        trace_consumptions(trace),
        max_distance=max(distances),
        workload=workload,
        # Warm the history on the shared warm-up window, as the paper
        # warms caches/CMOBs before measuring.
        measure_from_global_index=int(len(trace) * DEFAULT_WARMUP_FRACTION),
    )
    row: Dict[str, object] = {"workload": workload}
    for distance, fraction in cumulative_correlation(correlation, distances):
        row[f"d{distance}"] = fraction
    return row


SPEC = SweepSpec(
    title="Figure 6: cumulative % consumptions vs. temporal correlation distance",
    point=_point,
    columns=("workload",) + tuple(f"d{d}" for d in (1, 2, 4, 8, 16)),
    shared=(("distances", DISTANCES),),
)


def run(
    workloads: Sequence[str] = WORKLOADS,
    target_accesses: int = DEFAULT_TARGET_ACCESSES,
    seed: int = 42,
    distances: Sequence[int] = DISTANCES,
) -> List[Dict[str, object]]:
    """One row per workload: cumulative correlation at each distance."""
    return run_sweep(
        SPEC, workloads=workloads,
        target_accesses=target_accesses, seed=seed, distances=tuple(distances),
    )


def main() -> None:
    sweep_main(SPEC)


if __name__ == "__main__":
    main()
