"""Shared sqlite settings and write transactions for every accessor of a
service DB file.

Both the service result store (:mod:`repro.service.store`) and the campaign
event log (:class:`repro.service.events.EventLog`) open per-operation
connections to the same sqlite file from multiple threads and processes;
this module keeps the tuning (WAL journaling + busy timeout) and the
retrying write transaction (:func:`write`) in one place without coupling
either layer to the other.
"""

from __future__ import annotations

import sqlite3
import time


def connect(path, row_factory=None) -> sqlite3.Connection:
    """Open a per-operation connection with the repository's standard
    settings: 30 s busy timeout, WAL journaling, NORMAL synchronous."""
    conn = sqlite3.connect(path, timeout=30.0)
    if row_factory is not None:
        conn.row_factory = row_factory
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def locked_error(exc: sqlite3.OperationalError) -> bool:
    """Whether an ``OperationalError`` is lock contention (retryable) rather
    than a real fault like a corrupt file or a missing table."""
    message = str(exc).lower()
    return "database is locked" in message or "database is busy" in message


def write(connect, mutate, attempts: int = 6):
    """Run ``mutate(conn)`` inside a retrying ``BEGIN IMMEDIATE``
    transaction on a fresh ``connect()`` connection.

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
