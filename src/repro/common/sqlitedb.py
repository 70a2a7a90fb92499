"""Shared sqlite connection settings for every accessor of a service DB file.

Both the service result store (:mod:`repro.service.store`) and the campaign
event log (:class:`repro.service.events.EventLog`) open per-operation
connections to the same sqlite file from multiple threads and processes;
this helper keeps the tuning (WAL journaling + busy timeout) in one place
without coupling either layer to the other.
"""

from __future__ import annotations

import sqlite3


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
