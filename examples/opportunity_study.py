"""Opportunity study: how temporally correlated are the workloads?

Reproduces the Figure 6 analysis for a chosen set of workloads: the
cumulative fraction of consumptions whose temporal correlation distance is
within +/-d, plus the stream-length character of each workload (Figure 13).
This is the analysis one would run on a new workload to decide whether
temporal streaming can help it.

The per-workload studies run through the experiment harness's
:func:`repro.experiments.runner.run_parallel` and its shared result cache.

Run with:  python examples/opportunity_study.py [workload ...]
"""

import sys
from typing import Dict

from repro.analysis.correlation import temporal_correlation
from repro.analysis.streams import fraction_of_hits_from_short_streams
from repro.coherence.protocol import trace_consumptions
from repro.common.config import DEFAULT_WARMUP_FRACTION, PAPER_LOOKAHEAD, TSEConfig
from repro.experiments.cache import cached_tse_run
from repro.experiments.runner import run_parallel, trace_for

TARGET_ACCESSES = 100_000


def study(workload: str, _config: object = None) -> Dict[str, object]:
    trace = trace_for(workload, TARGET_ACCESSES, 42)

    # --- temporal correlation (Figure 6) --------------------------------
    correlation = temporal_correlation(
        trace_consumptions(trace),
        measure_from_global_index=int(len(trace) * DEFAULT_WARMUP_FRACTION),
        workload=workload,
    )

    # --- streaming behaviour (Figures 7/13) ------------------------------
    config = TSEConfig.paper_default(lookahead=PAPER_LOOKAHEAD.get(workload, 8))
    stats = cached_tse_run(
        workload, config, target_accesses=TARGET_ACCESSES, seed=42,
        warmup_fraction=DEFAULT_WARMUP_FRACTION,
    )

    lines = [
        f"\n=== {workload} ===",
        f"consumptions analysed      : {correlation.total}",
        f"perfectly correlated (d=+1): {correlation.perfectly_correlated:6.1%}",
    ]
    for distance in (2, 4, 8, 16):
        lines.append(
            f"correlated within +/-{distance:<2}    : {correlation.cumulative_fraction(distance):6.1%}"
        )
    lines.append(f"TSE coverage               : {stats.coverage:6.1%}")
    lines.append(f"TSE discards               : {stats.discard_rate:6.1%}")
    lines.append(
        "share of hits from streams shorter than 8 blocks: "
        f"{fraction_of_hits_from_short_streams(stats.stream_length_hist):6.1%}"
    )
    return {"workload": workload, "report": "\n".join(lines)}


def main() -> None:
    workloads = sys.argv[1:] or ["em3d", "db2", "apache"]
    # Studies are independent: fan them out, print reports in input order.
    rows = run_parallel(study, tuple(workloads))
    for row in rows:
        print(row["report"])


if __name__ == "__main__":
    main()
