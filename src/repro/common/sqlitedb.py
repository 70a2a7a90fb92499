"""Shared sqlite settings, connection pools and write transactions for every
accessor of a service DB file.

Both the service result store (:mod:`repro.service.store`) and the campaign
event log (:class:`repro.service.events.EventLog`) reach the same sqlite
file from several threads (the scheduler's event loop, HTTP handler
threads) and processes (a second service, the CLI).  Each store file is
reached through one :class:`ConnectionPool` per opener: an operation
borrows an idle connection, or opens one with :func:`connect`'s settings,
and gives it back when its transaction ends.  So the connections open at
once are bounded by the operations running at once, not by threads or
transactions, and each connection pays its PRAGMAs once.  This module also
keeps the retrying write transaction (:func:`write`), without coupling
either layer to the other.

A pool's connections close when its owner closes it
(``ResultStore.close``), when the pool is dropped, and when
:func:`close_pools` is called for its file (``ResultStore.restore``
installing a backup over it); the next operation then opens a fresh
connection.  Pools are registered weakly: nothing at module level keeps a
dropped store's files open.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
import time
import weakref
from typing import Iterator, List

#: Idle connections a pool keeps for the next operation; one given back
#: beyond this (after a burst of concurrent operations) is closed.
MAX_IDLE = 4

#: Every live pool, weakly, for :func:`close_pools`.
_POOLS: "weakref.WeakSet[ConnectionPool]" = weakref.WeakSet()
_POOLS_LOCK = threading.Lock()


def connect(path, row_factory=None) -> sqlite3.Connection:
    """Open one connection with the repository's standard settings: 30 s
    busy timeout, WAL journaling, NORMAL synchronous.  A pool hands it to
    one thread at a time, so it may move between threads."""
    conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
    if row_factory is not None:
        conn.row_factory = row_factory
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def _close_all(connections: List[sqlite3.Connection]) -> None:
    while connections:
        connections.pop().close()


class ConnectionPool:
    """Long-lived connections to one sqlite file, lent one operation at a
    time (see the module docstring for the lifecycle)."""

    def __init__(self, path, row_factory=None) -> None:
        #: The file's resolved path, which :func:`close_pools` matches on.
        self.path = os.path.realpath(path)
        self.row_factory = row_factory
        self._idle: List[sqlite3.Connection] = []
        self._lock = threading.Lock()
        #: Bumped by :meth:`close`; a connection lent before that is closed
        #: when it comes back instead of rejoining the pool.
        self._epoch = 0
        weakref.finalize(self, _close_all, self._idle)
        with _POOLS_LOCK:
            _POOLS.add(self)

    @contextlib.contextmanager
    def connection(self) -> Iterator[sqlite3.Connection]:
        """Lend a connection for one transaction: committed when the block
        ends, rolled back if it raises, then given back."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
            epoch = self._epoch
        if conn is None:
            conn = connect(self.path, self.row_factory)
        try:
            with conn:
                yield conn
        finally:
            with self._lock:
                keep = (epoch == self._epoch and not conn.in_transaction
                        and len(self._idle) < MAX_IDLE)
                if keep:
                    self._idle.append(conn)
            if not keep:
                conn.close()

    def close(self) -> None:
        """Close every idle connection, and each lent one as it comes back.
        A later operation opens a fresh connection."""
        with self._lock:
            self._epoch += 1
            _close_all(self._idle)


def close_pools(path) -> None:
    """Close this process's pooled connections to the file at ``path``
    (:meth:`ConnectionPool.close` on every pool that reaches it)."""
    target = os.path.realpath(path)
    with _POOLS_LOCK:
        pools = [pool for pool in _POOLS if pool.path == target]
    for pool in pools:
        pool.close()


def locked_error(exc: sqlite3.OperationalError) -> bool:
    """Whether an ``OperationalError`` is lock contention (retryable) rather
    than a real fault like a corrupt file or a missing table."""
    message = str(exc).lower()
    return "database is locked" in message or "database is busy" in message


def write(connect, mutate, attempts: int = 6):
    """Run ``mutate(conn)`` inside a retrying ``BEGIN IMMEDIATE``
    transaction on a connection ``connect()`` lends.

    Immediate transactions take the write lock up front, so concurrent
    writers (two fleet workers posting results, the sweeper expiring a
    lease while a heartbeat lands) queue instead of failing mid-
    transaction; the retry loop absorbs the residual ``database is
    locked`` / ``database is busy`` errors a saturated WAL can still
    surface, with linear backoff.  The final attempt propagates, so a
    genuinely wedged store is loud, not silent.
    """
    for attempt in range(attempts):
        try:
            with connect() as conn:
                conn.execute("BEGIN IMMEDIATE")
                return mutate(conn)
        except sqlite3.OperationalError as exc:
            if attempt + 1 >= attempts or not locked_error(exc):
                raise
            time.sleep(0.05 * (attempt + 1))
    raise AssertionError("unreachable")  # pragma: no cover
