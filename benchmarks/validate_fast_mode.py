"""Statistical validation of the fast replay plane against the exact one.

The fast plane (``mode="fast"``) is deliberately non-bit-identical: it
batches queue orchestration, trims SVB evictions per pump instead of per
delivery, and fuses the per-event handlers.  It runs bare replays only (no
outcome recording, no traffic accounting), and what it must preserve is
their aggregates — coverage, discard rate, stream-length distribution.
This harness runs every registered workload through both planes at the
same trace/seed/warm-up point and renders the deltas into a diffable JSON
with one verdict per (workload, metric) against the declared tolerance
bands below.  ``tests/test_fast_mode.py`` locks the same bands in CI at a
reduced trace size.

Usage::

    PYTHONPATH=src python benchmarks/validate_fast_mode.py
    PYTHONPATH=src python benchmarks/validate_fast_mode.py --out fast_mode_validation.json
    PYTHONPATH=src python benchmarks/validate_fast_mode.py --workloads db2,apache --accesses 40000

Exit status is non-zero when any metric leaves its band, so the script
doubles as a CI gate.  The output is deliberately timestamp-free and
key-sorted: two runs at the same point diff clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Tuple

#: Declared tolerance bands: metric -> (kind, width[, floor]).  ``abs``
#: bands bound ``|fast - exact|``; ``rel`` bands bound
#: ``|fast - exact| / exact`` (with an exact value of zero demanding a fast
#: value within the floor of zero).  The optional third element is an
#: absolute floor below which a difference always passes.  These are the
#: contract the fast plane ships under — widen them only with a measured
#: justification in EXPERIMENTS.md.
BANDS: Dict[str, Tuple] = {
    "coverage": ("abs", 0.02),
    "discard_rate": ("abs", 0.08),
    "mean_stream_length": ("rel", 0.15),
}


def _unpack_band(band: Tuple) -> Tuple[str, float, float]:
    kind, width = band[0], band[1]
    floor = band[2] if len(band) > 2 else 0.0
    return kind, width, floor


def _metrics(workload: str, accesses: int, seed: int, nodes: int, mode: str) -> Dict[str, float]:
    """One bare functional run of a workload on ``mode``'s plane."""
    from repro.common.config import DEFAULT_WARMUP_FRACTION, PAPER_LOOKAHEAD, TSEConfig
    from repro.experiments.runner import trace_for
    from repro.tse.simulator import TSESimulator

    lookahead = PAPER_LOOKAHEAD.get(workload, 8)
    config = TSEConfig.paper_default(lookahead=lookahead)
    trace = trace_for(workload, accesses, seed, nodes)

    functional = TSESimulator(nodes, tse_config=config, mode=mode).run(
        trace, warmup_fraction=DEFAULT_WARMUP_FRACTION
    )

    return {
        "coverage": functional.coverage,
        "discard_rate": functional.discard_rate,
        "mean_stream_length": functional.stream_length_hist.mean,
        # Context columns (reported, not banded).
        "accuracy": functional.accuracy,
        "blocks_fetched": float(functional.blocks_fetched),
        "svb_hits": float(functional.svb_hits),
        "lookahead": float(lookahead),
    }


def check_metric(
    kind: str, width: float, exact: float, fast: float, floor: float = 0.0
) -> Tuple[float, bool]:
    """Return (delta-in-band-units, within?) for one metric pair."""
    if kind == "abs":
        delta = fast - exact
        return delta, abs(delta) <= width
    if abs(fast - exact) <= floor:
        delta = (fast - exact) / exact if exact else fast
        return delta, True
    if exact == 0.0:
        return fast, False
    delta = (fast - exact) / exact
    return delta, abs(delta) <= width


def validate(
    workloads, accesses: int, seed: int, nodes: int
) -> Dict[str, object]:
    report: Dict[str, object] = {
        "accesses": accesses,
        "seed": seed,
        "nodes": nodes,
        "bands": {name: {"kind": band[0], "width": band[1],
                         **({"floor": band[2]} if len(band) > 2 else {})}
                  for name, band in sorted(BANDS.items())},
        "workloads": {},
    }
    all_within = True
    for workload in workloads:
        exact = _metrics(workload, accesses, seed, nodes, "exact")
        fast = _metrics(workload, accesses, seed, nodes, "fast")
        deltas = {}
        workload_within = True
        for name, band in sorted(BANDS.items()):
            kind, width, floor = _unpack_band(band)
            delta, within = check_metric(kind, width, exact[name], fast[name], floor)
            workload_within &= within
            deltas[name] = {
                "exact": round(exact[name], 6),
                "fast": round(fast[name], 6),
                "delta": round(delta, 6),
                "band": f"±{width}{' rel' if kind == 'rel' else ''}",
                "within": within,
            }
        all_within &= workload_within
        report["workloads"][workload] = {
            "exact": {k: round(v, 6) for k, v in sorted(exact.items())},
            "fast": {k: round(v, 6) for k, v in sorted(fast.items())},
            "deltas": deltas,
            "within_bands": workload_within,
        }
        print(f"{workload}: {'ok' if workload_within else 'OUT OF BAND'} "
              f"(coverage {exact['coverage']:.4f} -> {fast['coverage']:.4f}, "
              f"discards {exact['discard_rate']:.4f} -> {fast['discard_rate']:.4f})",
              flush=True)
    report["all_within_bands"] = all_within
    return report


def main() -> int:
    # Imported here (not module top) so --help works without PYTHONPATH=src;
    # the env read itself lives in repro.common.config (RL005).
    from repro.common.config import bench_accesses

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--accesses", type=int,
        default=bench_accesses(default=80000),
        help="trace size per workload (default: REPRO_BENCH_ACCESSES or 80000)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all registered)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args()

    from repro.workloads import available_workloads

    workloads = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads else sorted(available_workloads())
    )
    report = validate(workloads, args.accesses, args.seed, args.nodes)
    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered)
    if not report["all_within_bands"]:
        print("FAIL: fast mode left its tolerance bands", file=sys.stderr)
        return 1
    print("fast-mode validation passed: all metrics within declared bands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
