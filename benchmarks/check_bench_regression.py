"""Fail CI when functional-simulator throughput regresses versus the committed value.

Usage::

    python benchmarks/check_bench_regression.py NEW.json COMMITTED.json [--threshold 0.25]

Compares ``functional_sim`` accesses/s in a freshly produced
``BENCH_core.json`` against the value committed in the repository.  Any
workload whose throughput dropped by more than the threshold (default 25 %)
fails the check; an *improved* value is reported but never fails.

Both the current per-class schema (``functional_sim.per_class``) and the
PR 1 db2-only schema (flat ``functional_sim.accesses_per_s``) are accepted
on either side: workloads are matched by name, with the flat field treated
as ``db2``.  Benchmarks run on heterogeneous CI machines, so the threshold
is intentionally loose — it catches structural regressions, not noise.

When both files carry ``src_lines`` (physical source lines per
``src/repro`` package), the per-package change is printed too; line
counts never fail the check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict


def throughputs(artifact: dict) -> Dict[str, float]:
    """Extract {series: rate} from either artifact schema.

    Functional-simulator series are keyed by workload name, with the
    fast plane (when present) as ``<workload>.fast``, the
    traffic-accounted exact replay (when present) as ``<workload>.traffic``,
    the timing model's cold base-vs-TSE compare (when present) as
    ``<workload>.timing``, the once-per-trace coherence classification
    (when present) as ``<workload>.classify`` and trace generation (when
    present) as ``<workload>.generate``;
    the service scheduler's campaign throughput (PR 4,
    ``service_throughput``) is keyed ``service`` in jobs/s; the
    events-enabled submission rate (PR 9, ``events_overhead``) is keyed
    ``service.events_on``; the
    checksummed-store submission rate (PR 10, ``store_integrity``) is
    keyed ``service.checksums_on``.  Series absent on either side are
    skipped, so older artifacts compare cleanly.
    """
    functional = artifact.get("functional_sim") or {}
    per_class = functional.get("per_class")
    if per_class:
        series = {
            workload: float(entry["accesses_per_s"])
            for workload, entry in per_class.items()
            if entry.get("accesses_per_s")
        }
        for workload, entry in per_class.items():
            for suffix, field in (
                ("fast", "fast_mode"), ("traffic", "traffic"), ("timing", "timing"),
                ("classify", "classify"), ("generate", "generate"),
            ):
                plane = entry.get(field) or {}
                if plane.get("accesses_per_s"):
                    series[f"{workload}.{suffix}"] = float(plane["accesses_per_s"])
    else:
        value = functional.get("accesses_per_s")
        workload = functional.get("workload", "db2")
        series = {workload: float(value)} if value else {}
    service = artifact.get("service_throughput") or {}
    if service.get("jobs_per_s"):
        series["service"] = float(service["jobs_per_s"])
    events = artifact.get("events_overhead") or {}
    if events.get("events_on_jobs_per_s"):
        series["service.events_on"] = float(events["events_on_jobs_per_s"])
    integrity = artifact.get("store_integrity") or {}
    if integrity.get("checksums_on_jobs_per_s"):
        series["service.checksums_on"] = float(
            integrity["checksums_on_jobs_per_s"]
        )
    return series


def report_src_lines(new: dict, committed: dict) -> None:
    """Print each package's source-line change when both artifacts carry
    ``src_lines``; reported only, never gated."""
    after, before = new.get("src_lines"), committed.get("src_lines")
    if not (after and before):
        return
    for package in sorted(set(after) | set(before)):
        old, now = before.get(package, 0), after.get(package, 0)
        print(f"src/repro/{package}: {old:,} -> {now:,} lines ({now - old:+,})")
    old, now = sum(before.values()), sum(after.values())
    print(f"src/repro: {old:,} -> {now:,} lines ({now - old:+,})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", help="freshly produced BENCH_core.json")
    parser.add_argument("committed", help="committed BENCH_core.json")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    args = parser.parse_args()

    with open(args.new) as handle:
        new_artifact = json.load(handle)
    with open(args.committed) as handle:
        committed_artifact = json.load(handle)
    report_src_lines(new_artifact, committed_artifact)
    new = throughputs(new_artifact)
    committed = throughputs(committed_artifact)

    if not new:
        print("ERROR: no functional_sim throughput in the fresh artifact")
        return 1
    if not committed:
        print("no committed throughput to compare against; skipping")
        return 0

    failures = []
    for workload, baseline in sorted(committed.items()):
        current = new.get(workload)
        if current is None:
            print(f"{workload}: no fresh measurement (skipped)")
            continue
        change = (current - baseline) / baseline
        status = "ok"
        if change < -args.threshold:
            status = "REGRESSION"
            failures.append(workload)
        print(
            f"{workload}: {baseline:,.0f} -> {current:,.0f} accesses/s "
            f"({change:+.1%}) [{status}]"
        )

    if failures:
        print(
            f"FAIL: functional-sim throughput regressed >"
            f"{args.threshold:.0%} for: {', '.join(failures)}"
        )
        return 1
    print("throughput check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
