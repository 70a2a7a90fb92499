"""Bit-identity reference battery for the TSE functional/traffic/timing planes.

Runs a fixed matrix of simulations — every workload under several TSE
configurations (including wraparound-heavy tiny CMOBs, single/many compared
streams, tiny SVBs), outcome-recording runs, bare runs (no recording, no
traffic: the loop every sweep runs), column-less streamed input,
traffic-accounting runs, the warm-state snapshot path, timing comparisons
(Figure 14 / Table 3) and the baseline prefetchers (Figure 12) — and writes
every result as JSON.  Two
trees produce byte-identical files exactly when their simulators are
bit-identical.  Run this one script against both trees' ``src/`` so both
sides run the same matrix::

    # the reference tree's sources (e.g. a checkout of the base commit)
    PYTHONPATH=/path/to/base/src python benchmarks/reference_battery.py /tmp/ref.json
    # the working tree's sources
    PYTHONPATH=src python benchmarks/reference_battery.py /tmp/new.json
    diff /tmp/ref.json /tmp/new.json

The matrix is intentionally small (~a minute) but adversarial: tiny CMOB
capacities force stale-pointer/wraparound paths, tiny SVBs force evictions
and queue-owner notifications, compared_streams extremes force the
single-FIFO short-circuit and the general N-FIFO agreement path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from repro.common.config import InterconnectConfig, TSEConfig
from repro.experiments.runner import trace_for
from repro.tse.simulator import TSESimulator
from repro.tse.snapshot import warm_tse_run
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams

ACCESSES = 20_000
SEED = 42
NUM_NODES = 16

WORKLOADS = (
    "em3d", "moldyn", "ocean", "sparse", "apache", "db2", "oracle", "zeus", "jbb",
)

#: (label, config) cells; every workload runs every cell.
CONFIGS = (
    ("paper", TSEConfig.paper_default()),
    ("single_stream", TSEConfig.paper_default().with_(compared_streams=1)),
    ("four_streams", TSEConfig(compared_streams=4, cmob_pointers_per_block=4)),
    ("tiny_cmob", TSEConfig(cmob_capacity=512)),
    ("tiny_cmob_wrap", TSEConfig(cmob_capacity=97, svb_entries=8)),
    ("tiny_svb", TSEConfig(svb_entries=4)),
    ("deep_lookahead", TSEConfig.paper_default(lookahead=24)),
)

#: Cells replayed bare as well: no outcome recording, no traffic.
BARE_CONFIGS = ("paper", "tiny_cmob_wrap")


def _stats_row(simulator: TSESimulator, stats) -> dict:
    row = stats.as_dict()
    row["stream_length_hist"] = sorted(stats.stream_length_hist._buckets.items())
    row["tse_counters"] = dict(sorted(simulator.tse.stats.snapshot().items()))
    return row


def functional_cell(workload: str, config: TSEConfig) -> dict:
    trace = trace_for(workload, ACCESSES, SEED, NUM_NODES)
    simulator = TSESimulator(NUM_NODES, tse_config=config, record_outcomes=True)
    row = _stats_row(simulator, simulator.run(trace, warmup_fraction=0.3))
    row["outcome_codes_sum"] = sum(simulator.outcome_codes)
    row["outcome_leads_sum"] = sum(simulator.outcome_leads)
    row["outcome_len"] = len(simulator.outcome_codes)
    return row


def bare_cell(workload: str, config: TSEConfig) -> dict:
    trace = trace_for(workload, ACCESSES, SEED, NUM_NODES)
    simulator = TSESimulator(NUM_NODES, tse_config=config)
    return _stats_row(simulator, simulator.run(trace, warmup_fraction=0.3))


def streamed_cell(workload: str) -> dict:
    """``run_chunks`` over a generator's chunks: input without a trace
    object, warm-up ending inside a chunk."""
    params = WorkloadParams(num_nodes=NUM_NODES, seed=SEED, target_accesses=ACCESSES)
    chunks = get_workload(workload, params).stream_chunks(chunk_size=4096)
    simulator = TSESimulator(NUM_NODES, tse_config=TSEConfig.paper_default())
    return _stats_row(
        simulator, simulator.run_chunks(chunks, name=workload, warmup_accesses=6_000)
    )


def traffic_cell(workload: str) -> dict:
    trace = trace_for(workload, ACCESSES, SEED, NUM_NODES)
    simulator = TSESimulator(
        NUM_NODES,
        tse_config=TSEConfig.paper_default(),
        account_traffic=True,
        interconnect_config=InterconnectConfig(width=4, height=4),
    )
    return simulator.run(trace, warmup_fraction=0.3).as_dict()


def warm_cell(workload: str) -> dict:
    cold = warm_tse_run(
        workload, warm_accesses=6_000, measure_accesses=8_000,
        seed=SEED, num_nodes=NUM_NODES, use_snapshot=False,
    )
    warm = warm_tse_run(
        workload, warm_accesses=6_000, measure_accesses=8_000,
        seed=SEED, num_nodes=NUM_NODES, use_snapshot=True,
    )
    again = warm_tse_run(
        workload, warm_accesses=6_000, measure_accesses=8_000,
        seed=SEED, num_nodes=NUM_NODES, use_snapshot=True,
    )
    return {"cold": cold.as_dict(), "warm": warm.as_dict(), "restored": again.as_dict()}


def timing_cell(workload: str, config: TSEConfig = TSEConfig.paper_default()) -> dict:
    from repro.system.timing import TimingSimulator

    trace = trace_for(workload, ACCESSES, SEED, NUM_NODES)
    comparison = TimingSimulator(tse_config=config).compare(trace)
    return {
        "speedup": comparison.speedup,
        "breakdowns": comparison.normalized_breakdowns(),
        "table3": comparison.table3_row(),
    }


def prefetch_cell(workload: str) -> dict:
    """Figure 12's baselines: stride and G/DC / G/AC GHB, 32-entry buffer."""
    from repro.prefetch import GHBPrefetcher, StridePrefetcher, evaluate_prefetcher

    trace = trace_for(workload, ACCESSES, SEED, NUM_NODES)
    factories = {
        "stride": lambda: StridePrefetcher(degree=8),
        "ghb_dc": lambda: GHBPrefetcher(mode="G/DC", history_entries=512, degree=8),
        "ghb_ac": lambda: GHBPrefetcher(mode="G/AC", history_entries=512, degree=8),
    }
    cells = {}
    for label, factory in factories.items():
        stats = evaluate_prefetcher(trace, factory, buffer_entries=32)
        cells[label] = {**asdict(stats), **stats.as_dict()}
    return cells


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "battery.json"
    battery: dict = {"accesses": ACCESSES, "seed": SEED, "nodes": NUM_NODES}
    for workload in WORKLOADS:
        cells = {}
        for label, config in CONFIGS:
            cells[label] = functional_cell(workload, config)
            if label in BARE_CONFIGS:
                cells[f"{label}_bare"] = bare_cell(workload, config)
        battery[workload] = cells
        print(f"{workload}: functional done", flush=True)
    battery["streamed"] = {w: streamed_cell(w) for w in ("em3d", "db2")}
    print("streamed done", flush=True)
    battery["traffic"] = {w: traffic_cell(w) for w in ("em3d", "db2", "apache")}
    print("traffic done", flush=True)
    battery["warm"] = {w: warm_cell(w) for w in ("em3d", "db2")}
    print("warm done", flush=True)
    battery["timing"] = {w: timing_cell(w) for w in ("db2", "moldyn", "em3d", "apache")}
    # A 4-entry SVB evicts streamed blocks before use; at lookahead 1 a
    # streamed block often arrives after its consumer asks for it, which is
    # the walk's partial-coverage path.
    battery["timing"]["db2_svb4"] = timing_cell(
        "db2", TSEConfig.paper_default().with_(svb_entries=4)
    )
    battery["timing"]["jbb_lookahead1"] = timing_cell(
        "jbb", TSEConfig.paper_default(lookahead=1)
    )
    print("timing done", flush=True)
    battery["prefetch"] = {w: prefetch_cell(w) for w in ("em3d", "db2", "apache")}
    print("prefetch done", flush=True)
    with open(out_path, "w") as handle:
        json.dump(battery, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
