"""Shared experiment plumbing: traces, parallel sweeps, and table printing.

Besides trace generation/caching, this module provides the experiment
harness's :func:`run_parallel`: every fig06–fig14 module expresses its sweep
as a module-level *point function* evaluated over ``workloads x configs``,
and ``run_parallel`` executes the points either serially or on the
process's one shared pool (:func:`pool_map`, which the service's local
slots use too).  Results are always merged in job-submission order, so the
parallel path is row-for-row identical to the serial one (locked in by the
determinism test in ``tests/test_perf_infra.py``).
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.chunk import ChunkedTrace
from repro.common.config import (
    DEFAULT_WARMUP_FRACTION,  # noqa: F401  (re-exported; fig modules import it here)
)
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.base import WorkloadParams

#: The paper's seven workloads, in paper order.
WORKLOADS: Sequence[str] = ALL_WORKLOADS

#: Default per-workload trace size for experiments.  Large enough that the
#: warm-up transient is a small fraction of the measurement; scale up for
#: higher-fidelity runs.
DEFAULT_TARGET_ACCESSES = 150_000

# DEFAULT_WARMUP_FRACTION is defined in repro.common.config (the single
# source) and re-exported above because every fig module historically
# imported it from the runner.


@lru_cache(maxsize=32)
def trace_for(
    workload: str,
    target_accesses: int = DEFAULT_TARGET_ACCESSES,
    seed: int = 42,
    num_nodes: int = 16,
) -> ChunkedTrace:
    """Generate (and cache) the packed trace for one workload.

    Traces are deterministic in (workload, target_accesses, seed, num_nodes),
    so caching them lets one experiment sweep many TSE configurations without
    regenerating the workload each time — and, because the cached trace
    object carries its memoized coherence code columns, without classifying
    it again.  The trace is columnar (:class:`~repro.common.chunk.ChunkedTrace`):
    the functional simulator, the timing model, the prefetcher harness and
    the Figure 6 correlation analysis all read its packed chunks and their
    code columns.
    """
    params = WorkloadParams(
        num_nodes=num_nodes, seed=seed, target_accesses=target_accesses
    )
    return get_workload(workload, params).generate_chunked()


def default_parallel_workers() -> int:
    """Worker count for :func:`run_parallel` and the service's local slots.

    The number of CPUs this process may run on (its affinity set), or the
    machine's CPU count where the platform has no affinity API.  One CPU
    (a single-core container, or a process pinned to one core) selects
    the serial path with zero overhead.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: The process's one worker pool and its size, built by :func:`pool_map`.
_POOL: Any = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def reset_pool(pool: Any = None, wait: bool = False) -> None:
    """Shut down the shared pool (or ``pool``, if still shared) and forget
    it, so the next :func:`pool_map` builds afresh; no future is cancelled."""
    global _POOL
    with _POOL_LOCK:
        pool = _POOL if pool is None else pool
        if pool is _POOL:
            _POOL = None
    if pool is not None:
        pool.shutdown(wait=wait)


atexit.register(reset_pool, wait=True)


def pool_map(
    fn: Callable[..., Any], tasks: Sequence[Tuple[Any, ...]], workers: int,
) -> List[Any]:
    """``[fn(*task) for task in tasks]``, in-process at ``workers <= 1``,
    else on the process's one pool of ``workers`` processes: built on first
    use (or for another ``workers``), kept across calls with its workers'
    caches until :func:`~repro.experiments.cache.clear_cache`, and shut
    down at exit.  The call that finds the pool broken (a worker died)
    finishes in-process and drops it, so the next call builds a fresh one.
    """
    global _POOL, _POOL_WORKERS
    if workers <= 1:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with _POOL_LOCK:  # no replacement shuts the pool before these submissions
        if _POOL is not None and _POOL_WORKERS != workers:
            _POOL.shutdown(wait=False)
            _POOL = None
        pool = _POOL
        try:
            if pool is None:
                pool = _POOL = ProcessPoolExecutor(max_workers=workers)
                _POOL_WORKERS = workers
            futures = [pool.submit(fn, *task) for task in tasks]
        except (ImportError, OSError, BrokenProcessPool):
            futures = None  # no process pool on this platform, or a broken one
    if futures is None:
        reset_pool(pool)
        return [fn(*task) for task in tasks]
    results = []
    for task, future in zip(tasks, futures):
        try:
            results.append(future.result())
        except BrokenProcessPool:
            reset_pool(pool)
            results.append(fn(*task))
    return results


def _run_points(
    point: Callable[..., Any], workload: str, configs: Sequence[Any],
    shared: Dict[str, Any],
) -> List[Dict[str, object]]:
    """One pool task: ``workload``'s points' rows, in config order."""
    rows: List[Dict[str, object]] = []
    for config in configs:
        result = point(workload, config, **shared)
        rows.extend(result if isinstance(result, list) else [result])
    return rows


def run_parallel(
    point: Callable[..., Any],
    workloads: Sequence[str],
    configs: Sequence[Any] = (None,),
    *,
    max_workers: Optional[int] = None,
    **shared: Any,
) -> List[Dict[str, object]]:
    """Evaluate ``point(workload, config, **shared)`` over a sweep grid.

    Args:
        point: A **module-level** function (it must be picklable for the
            process pool) computing one sweep point.  It may return one row
            dict or a list of row dicts.
        workloads: Workload names (outer sweep dimension).
        configs: Per-workload configuration values (inner dimension).  The
            default single ``None`` entry yields one point per workload.
        max_workers: Process count; ``None`` uses
            :func:`default_parallel_workers`.  ``1``, like a grid of one
            point, runs in-process (sharing the result cache).
        shared: Extra keyword arguments forwarded to every point (must be
            picklable when the pool is used).

    A pool task runs one workload's configs in order, in one process, where
    they share the trace; a grid with fewer workloads than workers goes out
    one point per task instead.

    Returns:
        The flattened rows in deterministic job order — ``workloads`` major,
        ``configs`` minor — regardless of worker scheduling, so parallel and
        serial runs produce identical tables.
    """
    workers = max_workers if max_workers is not None else default_parallel_workers()
    configs = tuple(configs)
    groups = [configs] if len(workloads) >= workers else [(config,) for config in configs]
    tasks = [(point, workload, group, shared) for workload in workloads for group in groups]
    results = pool_map(_run_points, tasks, workers if len(tasks) > 1 else 1)
    return [row for rows in results for row in rows]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one experiment's sweep.

    Every fig06–fig14 module is the same skeleton — build the sweep grid,
    evaluate a point function over ``workloads x configs`` with
    :func:`run_parallel`, optionally post-process the merged rows, and print
    an aligned table.  A ``SweepSpec`` captures that skeleton's variable
    parts once per module (as its module-level ``SPEC``), and is also what
    the service layer (:mod:`repro.service`) compiles into campaigns.

    Attributes:
        title: The heading ``main()`` prints above the table.
        point: The module-level sweep-point function (picklable), called as
            ``point(workload, config, *, target_accesses, seed, **shared)``.
        columns: Table columns, in print order.
        configs: Default inner sweep dimension (``(None,)`` = one point per
            workload).
        shared: Fixed extra keyword arguments for every point, as a sorted
            tuple of ``(name, value)`` pairs so the spec stays hashable.
        finalize: Optional whole-table post-processing hook (e.g. Figure 10's
            fraction-of-peak annotation), applied to the merged rows.
    """

    title: str
    point: Callable[..., Any]
    columns: Tuple[str, ...]
    configs: Tuple[Any, ...] = (None,)
    shared: Tuple[Tuple[str, Any], ...] = ()
    finalize: Optional[Callable[[List[Dict[str, object]]], List[Dict[str, object]]]] = None


def run_sweep(
    spec: SweepSpec,
    workloads: Sequence[str] = WORKLOADS,
    configs: Optional[Sequence[Any]] = None,
    target_accesses: int = DEFAULT_TARGET_ACCESSES,
    seed: int = 42,
    **overrides: Any,
) -> List[Dict[str, object]]:
    """Evaluate a :class:`SweepSpec`'s grid and return the (finalized) rows.

    ``configs`` overrides the spec's default inner dimension; ``overrides``
    override individual ``spec.shared`` keyword arguments.  Row order is the
    deterministic :func:`run_parallel` job order.
    """
    shared = dict(spec.shared)
    shared.update(overrides)
    rows = run_parallel(
        spec.point,
        workloads,
        spec.configs if configs is None else tuple(configs),
        target_accesses=target_accesses,
        seed=seed,
        **shared,
    )
    return spec.finalize(rows) if spec.finalize is not None else rows


def sweep_main(spec: SweepSpec, **kwargs: Any) -> None:
    """The shared ``main()``: run the spec's sweep and print its table."""
    rows = run_sweep(spec, **kwargs)
    print(spec.title)
    print(format_table(rows, spec.columns))


def format_table(rows: Iterable[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render result rows as an aligned text table (the experiments' output)."""
    rows = list(rows)
    widths = {col: len(col) for col in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            widths[col] = max(widths[col], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[col]) for cell, col in zip(cells, columns)))
    return "\n".join(lines)
