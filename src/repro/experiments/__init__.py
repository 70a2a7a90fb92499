"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning a list of row
dictionaries (the same rows/series the paper reports) and can be executed as
a script (``python -m repro.experiments.fig06_correlation``) to print the
table.  The benchmark suite under ``benchmarks/`` regenerates each result
through these entry points.
"""

from repro.experiments.runner import (
    DEFAULT_TARGET_ACCESSES,
    WORKLOADS,
    format_table,
    run_parallel,
    trace_for,
)

__all__ = [
    "WORKLOADS",
    "DEFAULT_TARGET_ACCESSES",
    "trace_for",
    "format_table",
    "run_parallel",
]
