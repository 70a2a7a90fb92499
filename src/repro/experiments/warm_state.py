"""Warm-state coverage study: scientific cold-start at default trace sizes.

The scientific workloads' first iterations are one long cold ramp: every
remote block is a cold miss, no CMOB history exists, and no stream can form.
At the paper's trace sizes the ramp is negligible, but at this repository's
scaled-down defaults it sits inside the measurement window and drags em3d /
ocean trace coverage below the paper's ~1.0 long-trace limit (the ROADMAP
open item, resolved in PR 3).

This experiment measures coverage at the default benchmark trace size twice
per workload:

* **cold** — the plain in-window warm-up every experiment uses
  (:data:`~repro.common.config.DEFAULT_WARMUP_FRACTION`);
* **warm** — a full-size warm ramp replayed *outside* the measurement
  window: one ``warm_accesses + target_accesses`` trace replayed by
  ``run_chunks`` with the statistics reset at the ramp's end, so CMOB,
  queue and directory state carry over into the window.

Run as a module for the table::

    PYTHONPATH=src python -m repro.experiments.warm_state

or as the ``warm_state`` service preset (``python -m repro.service submit
warm_state``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.config import DEFAULT_WARMUP_FRACTION, PAPER_LOOKAHEAD, TSEConfig
from repro.experiments.runner import SweepSpec, run_sweep, sweep_main
from repro.tse.simulator import TSESimulator
from repro.workloads.base import SCIENTIFIC_WORKLOADS

#: Default measurement window: the benchmark suite's trace size.
DEFAULT_MEASURE_ACCESSES = 80_000

#: Default ramp length: one full measurement window replayed pre-measurement
#: (enough for every scientific workload to complete its cold iterations).
DEFAULT_WARM_ACCESSES = 80_000


def _point(
    workload: str,
    _config: object,
    *,
    target_accesses: int,
    seed: int,
    warm_accesses: int,
) -> Dict[str, object]:
    """Cold vs. warm-state coverage for one workload (``target_accesses`` is
    the measurement window)."""
    from repro.experiments.runner import trace_for

    if warm_accesses < 0 or target_accesses <= 0:
        raise ValueError("warm_accesses must be >= 0 and target_accesses > 0")

    lookahead = PAPER_LOOKAHEAD.get(workload, 8)
    config = TSEConfig.paper_default(lookahead=lookahead)
    cold = TSESimulator(16, tse_config=config).run(
        trace_for(workload, target_accesses, seed),
        warmup_fraction=DEFAULT_WARMUP_FRACTION,
    )
    warm = TSESimulator(16, tse_config=config).run_chunks(
        trace_for(workload, warm_accesses + target_accesses, seed).chunks(),
        name=workload,
        warmup_accesses=warm_accesses,
    )
    return {
        "workload": workload,
        "lookahead": lookahead,
        "cold_coverage": cold.coverage,
        "warm_coverage": warm.coverage,
        "delta": warm.coverage - cold.coverage,
        "warm_accesses": warm_accesses,
        "measure_accesses": target_accesses,
    }


SPEC = SweepSpec(
    title="Warm-state coverage at default benchmark trace size",
    point=_point,
    columns=("workload", "lookahead", "cold_coverage", "warm_coverage", "delta"),
    shared=(("warm_accesses", DEFAULT_WARM_ACCESSES),),
)


def run(
    workloads: Sequence[str] = SCIENTIFIC_WORKLOADS,
    measure_accesses: int = DEFAULT_MEASURE_ACCESSES,
    warm_accesses: int = DEFAULT_WARM_ACCESSES,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """One row per workload: cold vs. warm-state coverage and the delta."""
    return run_sweep(
        SPEC,
        workloads=workloads,
        target_accesses=measure_accesses,
        seed=seed,
        warm_accesses=warm_accesses,
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    sweep_main(
        SPEC,
        workloads=SCIENTIFIC_WORKLOADS,
        target_accesses=DEFAULT_MEASURE_ACCESSES,
    )


if __name__ == "__main__":
    main()
