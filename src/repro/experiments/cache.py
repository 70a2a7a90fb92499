"""Shared simulation result cache.

Every figure in the paper is a sensitivity sweep: the same deterministic
trace is replayed under many TSE configurations, and several experiments
revisit the *same* (workload, configuration) point — e.g. the paper-default
configuration appears in Figures 9, 12, 13 and Table 3.  This module
memoizes functional simulation results so each distinct point is simulated
exactly once per process.

The cache key is the full determinism domain of a run:

    (workload, target_accesses, seed, num_nodes, tse_config,
     warmup_fraction, account_traffic, interconnect_config)

(:data:`KEY_FIELDS` is the canonical list, cross-checked statically by
``repro.lint`` rule RL001), followed by the literal ``("mode", "exact")``.
Every cached run replays the exact plane: the fast plane is reachable only
through an explicit ``mode="fast"``
:func:`~repro.tse.simulator.run_tse_on_trace`, which no key names.

Traces are deterministic in the first four components (see
:func:`repro.experiments.runner.trace_for`) and the simulator is
deterministic given a trace and a configuration, so a cache hit is
bit-identical to a fresh run — the determinism regression test in
``tests/test_perf_infra.py`` locks this in.

A miss is not always a replay.  Below this cache, the trace object keeps
its bare exact replays (:func:`~repro.tse.simulator.run_tse_on_trace`), and
one whose SVB never evicted and whose CMOBs never wrapped answers the same
point with a larger SVB or CMOB.  Figure 9's and Figure 10's ladders miss
here once per size but replay only the sizes that bind.

Cached :class:`~repro.tse.simulator.TSEStats` objects are shared between
callers and must be treated as read-only.  Call :func:`clear_cache` to
invalidate everything (for example after mutating simulator code in a
long-lived interpreter session).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.common.config import DEFAULT_WARMUP_FRACTION, InterconnectConfig, TSEConfig
from repro.experiments.runner import reset_pool, trace_for
from repro.tse.simulator import TSEStats, run_tse_on_trace

#: Canonical determinism-key field order — the full determinism domain of
#: one functional run, exactly the parameters of :func:`determinism_key`.
#:
#: This tuple is the machine-checked contract RL001 (``repro.lint``)
#: enforces: every parameter of :func:`determinism_key` must be named here
#: (deleting an entry while the parameter still exists is a lint error, as
#: is a stale entry with no matching parameter).  ``tse_config`` covers the
#: whole frozen ``TSEConfig`` dataclass — its ``repr`` canonicalizes every
#: hardware knob.
KEY_FIELDS: Tuple[str, ...] = (
    "workload",
    "target_accesses",
    "seed",
    "num_nodes",
    "tse_config",
    "warmup_fraction",
    "account_traffic",
    "interconnect_config",
)


class ResultCache:
    """A small LRU cache for simulation results keyed on run parameters."""

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Tuple, TSEStats]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Tuple) -> Optional[TSEStats]:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value: TSEStats) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, int]:
        return {"size": len(self._store), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses}


#: Process-wide cache shared by every experiment module.
_CACHE = ResultCache()


def determinism_key(
    workload: str,
    target_accesses: int,
    seed: int,
    num_nodes: int,
    tse_config: Optional[TSEConfig],
    warmup_fraction: float,
    account_traffic: bool = False,
    interconnect_config: Optional[InterconnectConfig] = None,
) -> Tuple:
    """The full determinism domain of one functional run, as a tuple.

    This is the in-process result-cache key.  The service layer's job keys
    (:class:`repro.service.spec.Job`) cover a different domain — a sweep
    point (experiment, workload, config cell, trace size, seed, nodes,
    shared kwargs) rather than one functional run — but both are rendered
    to persistent text through the same :func:`key_text` canonicalization.
    Both end with the literal ``("mode", "exact")``, which keeps every key
    persisted since the fast plane existed byte-identical.
    """
    config = tse_config if tse_config is not None else TSEConfig.paper_default()
    return (workload, target_accesses, seed, num_nodes, config,
            warmup_fraction, account_traffic, interconnect_config, ("mode", "exact"))


def key_text(key: Tuple) -> str:
    """Canonical text form of a determinism key.

    Frozen-dataclass ``repr`` is deterministic and covers every field, so
    the text is stable across processes and interpreter restarts — safe to
    use as a persistent primary key.
    """
    return repr(key)


def cached_tse_run(
    workload: str,
    tse_config: Optional[TSEConfig] = None,
    *,
    target_accesses: int,
    seed: int = 42,
    num_nodes: int = 16,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    account_traffic: bool = False,
    interconnect_config: Optional[InterconnectConfig] = None,
) -> TSEStats:
    """Run (or reuse) the exact-plane TSE simulation for one sweep point.

    Returns the same :class:`TSEStats` the uncached
    :func:`~repro.tse.simulator.run_tse_on_trace` would produce for these
    parameters.  The result object is shared — treat it as read-only.
    """
    config = tse_config if tse_config is not None else TSEConfig.paper_default()
    key = determinism_key(workload, target_accesses, seed, num_nodes, config,
                          warmup_fraction, account_traffic, interconnect_config)
    stats = _CACHE.get(key)
    if stats is None:
        trace = trace_for(workload, target_accesses, seed, num_nodes)
        stats = run_tse_on_trace(
            trace,
            config,
            account_traffic=account_traffic,
            interconnect_config=interconnect_config,
            warmup_fraction=warmup_fraction,
        )
        _CACHE.put(key, stats)
    return stats


def clear_cache() -> None:
    """Invalidate every cached result and trace, pool workers' included."""
    _CACHE.clear()
    trace_for.cache_clear()
    reset_pool()


def cache_info() -> Dict[str, int]:
    """Hit/miss statistics of the shared result cache."""
    return _CACHE.info()


def main(argv: Optional[list] = None) -> int:
    """Cache-management entry point: ``python -m repro.experiments.cache``.

    ``--stats`` prints the state of every cache layer (in-process results,
    traces, and — when it exists — the persistent service store);
    ``--clear`` empties them; ``--gc --keep-days N`` age-evicts persisted
    result and event rows older than ``N`` days while preserving campaign
    membership, so a later resubmission recomputes exactly the evicted
    points.  The service's store GC is routed through this entry point:
    clearing or collecting here is the one supported way to drop persisted
    results.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cache",
        description="Inspect, clear, or age-collect the simulation caches "
        "and the persistent service result store.",
    )
    parser.add_argument("--stats", action="store_true",
                        help="print cache and store statistics as JSON")
    parser.add_argument("--clear", action="store_true",
                        help="clear the in-process caches and the service store")
    parser.add_argument("--gc", action="store_true",
                        help="age-based eviction of persisted store rows "
                        "(requires --keep-days)")
    parser.add_argument("--keep-days", type=float, default=None, metavar="N",
                        help="with --gc: keep rows created within the last "
                        "N days, evict older ones")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="service store path (default: REPRO_SERVICE_STORE "
                        "or .repro/service.sqlite)")
    args = parser.parse_args(argv)
    if not (args.stats or args.clear or args.gc):
        parser.error("nothing to do: pass --stats, --clear and/or --gc")
    if args.gc and args.keep_days is None:
        parser.error("--gc requires --keep-days N")
    if args.keep_days is not None and args.keep_days < 0:
        parser.error("--keep-days must be non-negative")

    from repro.service.store import ResultStore, default_store_path

    store_path = args.store if args.store is not None else default_store_path()
    store = ResultStore(store_path) if ResultStore.exists(store_path) else None

    if args.clear:
        clear_cache()
        cleared = {"in_process": "cleared"}
        if store is not None:
            cleared["store"] = store.clear()
        else:
            cleared["store"] = f"no store at {store_path}"
        print(_json.dumps({"cleared": cleared}, indent=2, default=str))
    if args.gc:
        if store is not None:
            evicted = store.gc(args.keep_days)
        else:
            evicted = f"no store at {store_path}"
        print(_json.dumps({"gc": {"keep_days": args.keep_days,
                                  "evicted": evicted}}, indent=2, default=str))
    if args.stats:
        stats = {
            "results": cache_info(),
            "traces": trace_for.cache_info()._asdict(),
            "store": store.stats() if store is not None
            else f"no store at {store_path}",
        }
        print(_json.dumps(stats, indent=2, default=str))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
