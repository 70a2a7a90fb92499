"""Warm-state snapshot/restore for the functional simulator.

The paper warms caches, CMOBs and directory state before measuring
(Section 4).  At small trace sizes that warm ramp is a real problem twice
over: it costs wall clock on every run, and — for the scientific workloads,
whose first iterations are all cold misses — whatever part of it sits inside
the measurement window drags trace coverage below the paper's long-trace
limit (the ROADMAP's em3d/ocean cold-start item).

This module fixes both with the columnar backbone:

* the workload's emission is deterministic and chunk-cached
  (:func:`repro.experiments.runner.trace_for`), so the *trace side* of a
  warm state — RNG state, primitive state, interleaving position — is
  captured implicitly by splitting the packed chunk list at the warm
  boundary;
* the *simulator side* (directory entries and CMOB pointers, per-node CMOB
  contents, stream queues, SVBs, per-node access clocks) is captured by
  pickling the whole :class:`TSESimulator` after the ramp has been replayed
  once.  Coherence state is not part of it: both windows read the trace's
  memoized code columns
  (:func:`~repro.coherence.protocol.trace_codes`), split at the boundary.

Every subsequent run of the same ``(workload, warm size, seed, nodes,
config)`` point restores the simulator from the cached snapshot and replays
only the measurement window.  Restores are bit-identical to replaying the
ramp — locked in by ``tests/test_perf_infra.py`` — and snapshots are
disabled simply by not using this module (nothing in the plain
``run``/``run_chunks`` path changes behaviour).
"""

from __future__ import annotations

import pickle
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, MutableMapping, Optional, Tuple

from repro.coherence.protocol import trace_codes
from repro.common.chunk import TraceChunk
from repro.common.config import MODE_EXACT, TSEConfig, mode_key, resolve_mode
from repro.tse.simulator import TSESimulator, TSEStats

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotFormatError",
    "capture",
    "restore",
    "warm_tse_run",
    "snapshot_key",
    "clear_snapshots",
    "snapshot_info",
    "PersistentSnapshotStore",
]

#: Version of the snapshot payload format.  Bump whenever the pickled
#: simulator's internal representation changes incompatibly.  Format 1 was
#: the list-backed layout, format 2 the byte-packed CMOB rings and
#: stream-queue FIFOs, format 3 drops the finite-cache model and the
#: directory's sharer/owner state, format 4 gives both TSE planes a
#: traffic accountant in place of a message sink, format 5 leaves the
#: protocol's block state empty (a bare replay reads code columns), format
#: 6 drops the per-component statistics registries and counters (the CMOB,
#: SVB, stream engine, directory and protocol carry none), and format 7
#: drops the simulator's protocol (it owns the directory itself), the SVB
#: entry's version slot and the CMOB's node id and entry size.  The
#: version participates in :func:`snapshot_key`, so persisted pre-refactor
#: snapshots simply never match — a restore falls back to a cold ramp
#: instead of unpickling an object whose attributes no longer exist — and it
#: is embedded in the payload itself so a payload from a mismatched writer
#: is rejected loudly by :func:`restore` rather than half-restored.
SNAPSHOT_FORMAT = 7


class SnapshotFormatError(RuntimeError):
    """A snapshot payload was written by an incompatible format version."""


def capture(simulator: TSESimulator) -> bytes:
    """Serialize a simulator's complete functional state.

    Only simulators without traffic accounting can be captured: a traffic
    accountant's counts are not part of the warm state contract.  The payload embeds :data:`SNAPSHOT_FORMAT`.
    """
    if simulator.traffic is not None:
        raise ValueError("cannot snapshot a traffic-accounting simulator")
    return pickle.dumps((SNAPSHOT_FORMAT, simulator), protocol=pickle.HIGHEST_PROTOCOL)


def restore(snapshot: bytes, expected_mode: Optional[str] = None) -> TSESimulator:
    """Materialize an independent simulator from a :func:`capture` payload.

    Raises :class:`SnapshotFormatError` for payloads without a matching
    format header (e.g. a raw pre-versioning pickle, or one captured by a
    different simulator layout); callers that can recompute — like
    :func:`warm_tse_run` — treat that as a cache miss.

    ``expected_mode`` makes the restore refuse a cross-mode payload: the
    exact and fast planes produce different (deliberately non-bit-identical)
    warm states, so resuming an exact measurement from a fast-mode ramp —
    or vice versa — would silently blend the two pipelines.  Keys already
    separate the modes; this guard catches payloads reached any other way.
    """
    try:
        payload = pickle.loads(snapshot)
    except Exception as exc:  # unpicklable / truncated / stale class layout
        raise SnapshotFormatError(f"unreadable snapshot payload: {exc}") from exc
    if (
        not isinstance(payload, tuple)
        or len(payload) != 2
        or payload[0] != SNAPSHOT_FORMAT
        or not isinstance(payload[1], TSESimulator)
    ):
        raise SnapshotFormatError(
            "snapshot payload is not format "
            f"{SNAPSHOT_FORMAT} (got {type(payload).__name__})"
        )
    simulator = payload[1]
    if expected_mode is not None:
        captured = getattr(simulator, "mode", MODE_EXACT)
        if captured != expected_mode:
            raise SnapshotFormatError(
                f"cross-mode restore refused: snapshot was captured in "
                f"{captured!r} mode, caller expects {expected_mode!r}"
            )
    return simulator


#: Process-wide snapshot cache: determinism-key text -> pickled simulator.
_SNAPSHOTS: Dict[str, bytes] = {}
_HITS = 0
_MISSES = 0


def snapshot_key(
    workload: str,
    warm_accesses: int,
    total_accesses: int,
    seed: int,
    num_nodes: int,
    config: TSEConfig,
    mode: Optional[str] = None,
) -> str:
    """Canonical text key of one warm-state point (stable across processes).

    Includes :data:`SNAPSHOT_FORMAT`, so snapshots persisted by an older
    simulator layout are invalidated by key — never deserialized — and the
    resolved simulation mode (with the fast plane's result-affecting env
    knobs, via :func:`repro.common.config.mode_key`), so exact and fast
    warm states occupy disjoint key spaces (``restore`` additionally
    refuses a cross-mode payload outright).
    """
    return repr((SNAPSHOT_FORMAT, workload, warm_accesses, total_accesses,
                 seed, num_nodes, config, mode_key(mode)))


class PersistentSnapshotStore(MutableMapping):
    """A sqlite-backed snapshot mapping (text key -> pickled simulator).

    Drop-in replacement for the in-process snapshot dict that survives
    restarts and is shared between scheduler worker processes — pass it to
    :func:`warm_tse_run` as ``snapshot_store``.  It points at the service
    result store's sqlite file by default (same ``snapshots`` table the
    store GC clears), but any path works.  Writes are first-write-wins:
    snapshots are deterministic per key, so a concurrent duplicate insert
    loses nothing.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS snapshots ("
                "key TEXT PRIMARY KEY, payload BLOB NOT NULL, created REAL NOT NULL)"
            )

    def _connect(self) -> sqlite3.Connection:
        from repro.common.sqlitedb import connect

        return connect(self.path)

    def __getitem__(self, key: str) -> bytes:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM snapshots WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            raise KeyError(key)
        return row[0]

    def __setitem__(self, key: str, payload: bytes) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO snapshots (key, payload, created) "
                "VALUES (?, ?, ?)",
                # Row-creation metadata for store GC — never read back into
                # results, so the wall-clock ban does not apply.
                (key, sqlite3.Binary(payload), time.time()),  # repro-lint: disable=RL003
            )

    def __delitem__(self, key: str) -> None:
        with self._connect() as conn:
            if conn.execute("DELETE FROM snapshots WHERE key = ?", (key,)).rowcount == 0:
                raise KeyError(key)

    def __iter__(self):
        with self._connect() as conn:
            keys = [row[0] for row in conn.execute("SELECT key FROM snapshots")]
        return iter(keys)

    def __len__(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM snapshots").fetchone()[0]


def clear_snapshots() -> None:
    """Drop every cached warm-state snapshot."""
    global _HITS, _MISSES
    _SNAPSHOTS.clear()
    _HITS = 0
    _MISSES = 0


def snapshot_info() -> Dict[str, int]:
    """Cache statistics (size / hits / misses / total payload bytes)."""
    return {
        "size": len(_SNAPSHOTS),
        "hits": _HITS,
        "misses": _MISSES,
        "bytes": sum(len(payload) for payload in _SNAPSHOTS.values()),
    }


def _split_columns(
    columns, warm_accesses: int
) -> Tuple[List[Tuple[TraceChunk, bytes]], List[Tuple[TraceChunk, bytes]]]:
    """Split ``(chunk, code column)`` pairs at exactly ``warm_accesses``."""
    warm: List[Tuple[TraceChunk, bytes]] = []
    measure: List[Tuple[TraceChunk, bytes]] = []
    remaining = warm_accesses
    for chunk, codes in columns:
        if remaining <= 0:
            measure.append((chunk, codes))
            continue
        size = len(chunk)
        if size <= remaining:
            warm.append((chunk, codes))
            remaining -= size
        else:
            warm.append((chunk.slice(0, remaining), codes[:remaining]))
            measure.append((chunk.slice(remaining), codes[remaining:]))
            remaining = 0
    return warm, measure


def warm_tse_run(
    workload: str,
    tse_config: Optional[TSEConfig] = None,
    *,
    warm_accesses: int,
    measure_accesses: int,
    seed: int = 42,
    num_nodes: int = 16,
    use_snapshot: bool = True,
    snapshot_store: Optional[MutableMapping] = None,
    mode: Optional[str] = None,
) -> TSEStats:
    """Run ``measure_accesses`` of a workload after a ``warm_accesses`` ramp.

    The ramp runs outside the measurement window (statistics reset at the
    boundary, state carries over — exactly ``run_chunks``'s
    ``warmup_accesses`` semantics).  With ``use_snapshot`` (the default)
    the post-ramp simulator state is cached per determinism key, so every
    later run of the same point skips straight to the measurement window;
    with ``use_snapshot=False`` the ramp is replayed, which is the
    bit-identity reference the tests compare against.

    ``snapshot_store`` substitutes a different mapping for the in-process
    snapshot cache — pass a :class:`PersistentSnapshotStore` to share warm
    state across worker processes and restarts (the service scheduler does
    this for warm-state campaigns).
    """
    global _HITS, _MISSES
    if warm_accesses < 0 or measure_accesses <= 0:
        raise ValueError("warm_accesses must be >= 0 and measure_accesses > 0")
    from repro.experiments.runner import trace_for

    config = tse_config if tse_config is not None else TSEConfig.paper_default()
    resolved_mode = resolve_mode(mode)
    trace = trace_for(workload, warm_accesses + measure_accesses, seed, num_nodes)
    # The ramp and the measurement window read the trace's memoized code
    # columns, so the window's classification continues the ramp's.
    warm_columns, measure_columns = _split_columns(
        zip(trace.chunks(), trace_codes(trace)), warm_accesses
    )

    store = snapshot_store if snapshot_store is not None else _SNAPSHOTS
    key = snapshot_key(workload, warm_accesses, len(trace), seed, num_nodes,
                       config, mode=resolved_mode)
    simulator: Optional[TSESimulator] = None
    if use_snapshot:
        payload = store.get(key)
        if payload is not None:
            try:
                simulator = restore(payload, expected_mode=resolved_mode)
                _HITS += 1
            except SnapshotFormatError:
                # A stale, foreign, or cross-mode payload under the current
                # key: fall back to the cold ramp and overwrite it below.
                simulator = None
                store.pop(key, None)
    if simulator is None:
        simulator = TSESimulator(num_nodes, tse_config=config, mode=resolved_mode)
        for chunk, codes in warm_columns:
            simulator._replay_chunk(chunk, codes)
        if use_snapshot:
            _MISSES += 1
            store[key] = capture(simulator)
    simulator.reset_stats(workload)
    return simulator._run(measure_columns, workload)
