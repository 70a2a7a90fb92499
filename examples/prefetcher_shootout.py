"""Prefetcher shootout: TSE versus stride and GHB on the same workload.

Reproduces the Figure 12 comparison for one workload of your choice: each
technique sees exactly the same consumption stream and an identically sized
(32-entry) buffer, so coverage and discards are directly comparable.

Run with:  python examples/prefetcher_shootout.py [workload]
"""

import sys

from repro.common.config import DEFAULT_WARMUP_FRACTION, TSEConfig
from repro.prefetch import GHBPrefetcher, StridePrefetcher, evaluate_prefetcher
from repro.tse.simulator import run_tse_on_trace
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams

TARGET_ACCESSES = 100_000


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "oracle"
    params = WorkloadParams(num_nodes=16, seed=42, target_accesses=TARGET_ACCESSES)
    trace = get_workload(workload, params).generate_chunked()

    print(f"Comparing forwarding techniques on {workload} "
          f"({len(trace)} accesses, 16 nodes)\n")
    print(f"{'technique':<10} {'coverage':>9} {'discards':>9} {'accuracy':>9}")

    baselines = [
        ("Stride", lambda: StridePrefetcher(degree=8)),
        ("G/DC", lambda: GHBPrefetcher(mode="G/DC", history_entries=512, degree=8)),
        ("G/AC", lambda: GHBPrefetcher(mode="G/AC", history_entries=512, degree=8)),
    ]
    for name, factory in baselines:
        result = evaluate_prefetcher(
            trace, factory, buffer_entries=32,
            warmup_fraction=DEFAULT_WARMUP_FRACTION,
        )
        print(f"{name:<10} {result.coverage:>9.1%} {result.discard_rate:>9.1%} "
              f"{result.accuracy:>9.1%}")

    tse = run_tse_on_trace(
        trace, TSEConfig.paper_default(lookahead=8),
        warmup_fraction=DEFAULT_WARMUP_FRACTION,
    )
    print(f"{'TSE':<10} {tse.coverage:>9.1%} {tse.discard_rate:>9.1%} {tse.accuracy:>9.1%}")

    print("\nTSE wins because its CMOB lives in main memory (millions of "
          "entries) and streams are located system-wide through the "
          "directory, while the GHB's 512-entry on-chip history is too small "
          "to capture repetitive consumption sequences.")


if __name__ == "__main__":
    main()
