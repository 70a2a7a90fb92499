"""Shared experiment plumbing: traces, parallel sweeps, and table printing.

Besides trace generation/caching, this module provides the experiment
harness's :func:`run_parallel`: every fig06–fig14 module expresses its sweep
as a module-level *point function* evaluated over ``workloads x configs``,
and ``run_parallel`` executes the points either serially or on a process
pool.  Results are always merged in job-submission order, so the parallel
path is row-for-row identical to the serial one (locked in by the
determinism test in ``tests/test_perf_infra.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.chunk import ChunkedTrace
from repro.common.config import (
    DEFAULT_WARMUP_FRACTION,  # noqa: F401  (re-exported; fig modules import it here)
    parallel_workers_override,
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


#: Packed trace payloads delivered to worker processes by the parallel
#: runner's initializer; consulted (and consumed) by :func:`trace_for`
#: before falling back to generation.
_PRELOADED: Dict[Tuple[str, int, int, int], object] = {}


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
    the functional simulator, the timing model and the prefetcher harness
    read its packed chunks directly, while object consumers (the Figure 6
    correlation analysis) iterate its thin ``MemoryAccess`` view.
    """
    payload = _PRELOADED.pop((workload, target_accesses, seed, num_nodes), None)
    if payload is not None:
        return ChunkedTrace.from_payload(payload)
    params = WorkloadParams(
        num_nodes=num_nodes, seed=seed, target_accesses=target_accesses
    )
    return get_workload(workload, params).generate_chunked()


def _seed_preloaded_traces(payloads: Dict[Tuple[str, int, int, int], object]) -> None:
    """Process-pool initializer: hand workers pre-generated trace payloads.

    The payloads are flat packed buffers (the chunk columns), so pickling
    them into the worker is far cheaper than regenerating the workload — and
    on fork-based platforms the parent's warm ``trace_for`` cache is
    inherited outright, making this a no-op fallback.
    """
    _PRELOADED.update(payloads)


def default_parallel_workers() -> int:
    """Worker count for :func:`run_parallel`.

    Controlled by the ``REPRO_PARALLEL_WORKERS`` environment variable (read
    through :func:`repro.common.config.parallel_workers_override` — RL005
    keeps every ``REPRO_*`` read inside ``common/config.py``); defaults to
    the machine's CPU count.  A value of 1 (e.g. on a single-core
    container) selects the serial path with zero overhead.
    """
    override = parallel_workers_override()
    if override is not None:
        return override
    return os.cpu_count() or 1


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
            :func:`default_parallel_workers`.  ``1`` runs serially in-process
            (sharing the result cache), which is also the fallback when no
            process pool can be created.
        shared: Extra keyword arguments forwarded to every point (must be
            picklable when the pool is used).

    Returns:
        The flattened rows in deterministic job order — ``workloads`` major,
        ``configs`` minor — regardless of worker scheduling, so parallel and
        serial runs produce identical tables.
    """
    jobs = [(workload, config) for workload in workloads for config in configs]
    workers = max_workers if max_workers is not None else default_parallel_workers()
    workers = min(workers, len(jobs)) if jobs else 1

    def run_serial() -> List[Any]:
        return [point(workload, config, **shared) for workload, config in jobs]

    results: List[Any]
    if workers <= 1:
        results = run_serial()
    else:
        # Pre-generate each workload's packed trace once in the parent and
        # hand the flat chunk buffers to the workers: cheap to pickle, and
        # fork-based pools additionally inherit the parent's warm cache.
        # Points run with non-default trace parameters simply regenerate.
        payloads = {}
        target_accesses = shared.get("target_accesses")
        seed = shared.get("seed", 42)
        num_nodes = shared.get("num_nodes", 16)
        if isinstance(target_accesses, int) and isinstance(seed, int):
            for workload in dict.fromkeys(workloads):
                trace = trace_for(workload, target_accesses, seed, num_nodes)
                key = (workload, target_accesses, seed, num_nodes)
                payloads[key] = trace.to_payload()
        pool = None
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_seed_preloaded_traces if payloads else None,
                initargs=(payloads,) if payloads else (),
            )
        except (ImportError, OSError, PermissionError):
            # No usable process pool on this platform: fall back to serial.
            results = run_serial()
        else:
            try:
                with pool:
                    futures = [
                        pool.submit(point, workload, config, **shared)
                        for workload, config in jobs
                    ]
                    # Exceptions raised by a point propagate to the caller;
                    # only an environmentally killed pool falls back.
                    results = [future.result() for future in futures]
            except BrokenProcessPool:
                results = run_serial()

    rows: List[Dict[str, object]] = []
    for result in results:
        if isinstance(result, list):
            rows.extend(result)
        else:
            rows.append(result)
    return rows


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
