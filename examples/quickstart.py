"""Quickstart: run one workload through the Temporal Streaming Engine.

Generates a TPC-C-style (DB2-like) trace on a 16-node DSM, replays it through
the trace-driven TSE simulator, and reports coverage, discards and the
timing-model speedup — the headline metrics of the paper.

Run with:  python examples/quickstart.py
"""

from repro.system import DSMSystem

TARGET_ACCESSES = 120_000


def main() -> None:
    dsm = DSMSystem()  # Table 1 configuration: 16 nodes, 4x4 torus, 4 GHz cores

    print("Running TPC-C on DB2 through the Temporal Streaming Engine ...")
    result = dsm.run_workload("db2", target_accesses=TARGET_ACCESSES, seed=42, with_timing=True)

    stats = result.tse_stats
    print(f"\nConsumptions (coherent read misses): {stats.total_consumptions}")
    print(f"Coverage  (consumptions eliminated): {stats.coverage:6.1%}")
    print(f"Discards  (blocks streamed in vain): {stats.discard_rate:6.1%}")
    print(f"Streaming accuracy                  : {stats.accuracy:6.1%}")

    timing = result.timing
    base = timing.base.breakdown()
    print("\nBase system execution-time breakdown:")
    print(f"  busy                 {base['busy']:6.1%}")
    print(f"  other stalls         {base['other_stalls']:6.1%}")
    print(f"  coherent read stalls {base['coherent_read_stalls']:6.1%}")
    print(f"\nConsumption MLP (base system): {timing.base.consumption_mlp:.2f}")
    print(f"TSE speedup over the base system: {timing.speedup:.2f}x")


if __name__ == "__main__":
    main()
