"""Profile one functional replay and print the hottest functions.

The standing tool for "where is the next bottleneck": runs a single
uncached paper-default replay of one workload (its coherence
classification included) under ``cProfile`` and prints
the top cumulative (and top self-time) functions, so future perf PRs start
from measurements instead of ad-hoc scripts.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py db2
    PYTHONPATH=src python benchmarks/profile_hotpath.py db2 --mode fast
    PYTHONPATH=src python benchmarks/profile_hotpath.py db2 --mode both --top 12
    PYTHONPATH=src python benchmarks/profile_hotpath.py apache --accesses 160000 --top 30
    PYTHONPATH=src python benchmarks/profile_hotpath.py em3d --sort tottime
    PYTHONPATH=src python benchmarks/profile_hotpath.py db2 --traffic
    PYTHONPATH=src python benchmarks/profile_hotpath.py db2 --timing

``--mode fast`` profiles the batched fast plane (``mode="fast"``) instead
of the exact pipeline; ``--mode both`` profiles each plane once and prints a
side-by-side top-N table (ranked by the fast plane's self time), so the
residual fast-mode bottleneck is visible at a glance.  The fast plane runs
bare replays only, so it takes no ``--traffic``.  ``--traffic``
attaches the traffic accountant (Figure 11's configuration) to the exact
replay, so the traffic
plane is profiled together with the replay plane it rides on: the trace's
one fold pass (``trace_traffic``, which counts the base system's messages
and classifies the trace in the same pass), then a replay that takes back
the messages of the reads its SVB hits served and counts TSE's own.  That
replay is the trace's replay record, so it records the timing model's
outcome columns too.  ``--timing`` profiles the timing model instead (Figure 14):
one cold ``TimingSimulator.compare`` — base labels, the TSE label run and
both timing walks — on a fresh copy of the trace, so no replay record
helps.  In a figure run the TSE label run is skipped: a traffic-accounted
replay of the same trace and configuration already holds its labels.

Note that ``cProfile`` charges ~0.5µs per function call, which inflates
call-heavy code relative to slice/``memcmp``-heavy code — confirm any
conclusion with a wall-clock A/B before acting on it.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time


def _replay(trace, config, mode: str, traffic: bool, timing: bool = False) -> None:
    """One uncached replay, traffic-accounted on request; with ``timing``,
    one cold base-vs-TSE compare.  Either runs on a fresh copy of the trace,
    so it pays the trace's coherence classification and no memo helps."""
    from repro.common.chunk import ChunkedTrace
    from repro.common.config import DEFAULT_WARMUP_FRACTION
    from repro.tse.simulator import run_tse_on_trace

    fresh = ChunkedTrace.from_payload(trace.to_payload())
    if timing:
        from repro.system.timing import TimingSimulator

        TimingSimulator(tse_config=config).compare(fresh)
        return
    run_tse_on_trace(
        fresh, config, warmup_fraction=DEFAULT_WARMUP_FRACTION, mode=mode,
        account_traffic=traffic,
    )


def _run_once(trace, config, mode: str, traffic: bool, timing: bool = False) -> float:
    """One uncached run; returns wall-clock seconds."""
    start = time.perf_counter()
    _replay(trace, config, mode, traffic, timing)
    return time.perf_counter() - start


def _profile_once(
    trace, config, mode: str, traffic: bool, timing: bool = False
) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    _replay(trace, config, mode, traffic, timing)
    profile.disable()
    return pstats.Stats(profile)


def _self_time_rows(stats: pstats.Stats):
    """(label, calls, self seconds) per function, self-time descending."""
    rows = []
    for (filename, line, name), (cc, nc, tt, ct, callers) in stats.stats.items():
        label = f"{filename.rsplit('/', 1)[-1]}:{line}({name})"
        rows.append((label, nc, tt))
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows


def _side_by_side(exact_stats, fast_stats, top: int) -> str:
    """Top-N self-time table: fast-plane ranking with the exact column
    matched by function label (functions the other plane never calls show
    a dash)."""
    exact_rows = {label: (calls, tt) for label, calls, tt in _self_time_rows(exact_stats)}
    fast_rows = _self_time_rows(fast_stats)
    width = max([len(label) for label, _, _ in fast_rows[:top]] + [30])
    lines = [
        f"{'function (fast-plane ranking)':<{width}}  "
        f"{'fast self s':>11}  {'fast calls':>10}  {'exact self s':>12}  {'exact calls':>11}",
        "-" * (width + 52),
    ]
    for label, calls, tt in fast_rows[:top]:
        exact = exact_rows.get(label)
        exact_tt = f"{exact[1]:12.3f}" if exact else f"{'—':>12}"
        exact_calls = f"{exact[0]:11d}" if exact else f"{'—':>11}"
        lines.append(
            f"{label:<{width}}  {tt:11.3f}  {calls:10d}  {exact_tt}  {exact_calls}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", help="workload name (e.g. db2, apache, em3d)")
    parser.add_argument("--accesses", type=int, default=80_000,
                        help="trace size (default: the benchmark size, 80000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--lookahead", type=int, default=None,
                        help="stream lookahead (default: the paper's value "
                        "for the workload)")
    parser.add_argument("--mode", choices=("exact", "fast", "both"),
                        default="exact",
                        help="replay pipeline to profile; 'both' prints a "
                        "side-by-side top-N self-time table")
    parser.add_argument("--traffic", action="store_true",
                        help="attach the traffic accountant (Figure 11's "
                        "configuration) to the profiled replay")
    parser.add_argument("--timing", action="store_true",
                        help="profile one cold timing-model compare (Figure "
                        "14's base and TSE labels and walks) instead of a "
                        "replay; the timing model runs the exact plane")
    parser.add_argument("--top", type=int, default=20,
                        help="number of functions to print (default 20)")
    parser.add_argument("--sort", choices=("cumulative", "tottime"),
                        default="cumulative",
                        help="ranking order (default cumulative)")
    args = parser.parse_args()
    if args.timing and (args.mode != "exact" or args.traffic):
        parser.error("--timing profiles the exact-plane timing model; "
                     "it takes neither --mode nor --traffic")
    if args.traffic and args.mode != "exact":
        parser.error("--traffic accounts the exact plane only; the fast "
                     "plane runs bare replays")

    from repro.common.config import PAPER_LOOKAHEAD, TSEConfig
    from repro.experiments.runner import trace_for

    lookahead = (
        args.lookahead if args.lookahead is not None
        else PAPER_LOOKAHEAD.get(args.workload, 8)
    )
    config = TSEConfig.paper_default(lookahead=lookahead)
    trace = trace_for(args.workload, args.accesses, args.seed, args.nodes)

    modes = ("exact", "fast") if args.mode == "both" else (args.mode,)
    # One unprofiled run per mode first: wall clock without instrumentation
    # overhead (and a throughput comparison when profiling both planes).
    elapsed = {}
    for mode in modes:
        elapsed[mode] = _run_once(trace, config, mode, args.traffic, args.timing)
        label = "timing compare" if args.timing else (
            f"{mode}, traffic" if args.traffic else mode
        )
        print(
            f"{args.workload} [{label}]: {args.accesses} accesses in "
            f"{elapsed[mode]:.3f}s ({args.accesses / elapsed[mode]:,.0f} "
            f"accesses/s, lookahead {lookahead})"
        )
    if len(modes) == 2:
        print(f"fast/exact speedup: {elapsed['exact'] / elapsed['fast']:.2f}x")
    print()

    if args.mode == "both":
        exact_stats = _profile_once(trace, config, "exact", args.traffic)
        fast_stats = _profile_once(trace, config, "fast", args.traffic)
        print(_side_by_side(exact_stats, fast_stats, args.top))
        return 0

    stats = _profile_once(trace, config, args.mode, args.traffic, args.timing)
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
