"""Persistent result store (stdlib ``sqlite3``).

Completed sweep points are stored keyed by the canonical determinism-key
text of their :class:`~repro.service.spec.Job` — the same key domain the
in-process cache uses — so results survive restarts, resubmitted campaigns
recompute nothing, and any number of campaigns share one copy of each
point.  Campaign membership (ordering included) is stored separately, so a
campaign's table can always be reassembled row-for-row.

Each operation borrows a connection from the store's
:class:`~repro.common.sqlitedb.ConnectionPool` (shared with the
:class:`~repro.service.events.EventLog` it owns) and gives it back when its
transaction ends, so the store is safe to use from the scheduler's
event-loop thread and the HTTP server's handler threads at once, and opens
no more connections than it runs operations at once.
:meth:`ResultStore.close` (which ``Service.close`` calls) closes them.
WAL journaling plus a busy timeout handles the cross-process writes, and
every mutation runs through :meth:`ResultStore._write` — a retrying
``BEGIN IMMEDIATE`` transaction (:func:`repro.common.sqlitedb.write`) — so
two fleet workers posting results at the same instant never surface a raw
``sqlite3.OperationalError: database is locked`` to an HTTP client.  A
lease's grant and its settle are one transaction each: the lease row with
its events, and the result rows with the lease's terminal status and
events.

The fleet layer (PR 8) adds two tables: ``leases`` (worker batch leases
with TTLs, so the expiry sweeper can requeue a dead worker's jobs) and
``job_attempts`` (per-key failure counts and captured tracebacks backing
retry/backoff and poison-job quarantine).  The telemetry plane (PR 9)
adds the append-only ``events`` table, whose DDL
:class:`repro.service.events.EventLog` owns.

Durability layer (PR 10).  The schema is **versioned** via ``PRAGMA
user_version`` with an ordered in-place migration framework
(:data:`SCHEMA_VERSION`, applied on open): stores written by older builds
upgrade transparently on open, legacy pre-versioning stores are detected
from their table set, and a store written by a *newer* build refuses to
open with :exc:`StoreSchemaError` instead of silently misreading it.
Result rows carry a **SHA-256 payload checksum** (v3), verified by
:meth:`ResultStore.fsck`, which — with ``repair=True`` — deletes exactly
the corrupt rows so resubmission recomputes exactly the damaged points
(the same contract as ``gc``).  :meth:`ResultStore.backup` takes an
online snapshot through sqlite's backup API (safe under concurrent
writers), and :meth:`ResultStore.restore` validates and installs one: the
store's one portability path.

Garbage collection is routed through the cache-management entry point:
``python -m repro.experiments.cache --clear [--store PATH]`` wipes
everything, and ``--gc --keep-days N`` evicts only result and event rows
older than ``N`` days (campaign membership survives, so resubmission
recomputes exactly the evicted points).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import service_store_override
from repro.common.sqlitedb import ConnectionPool, close_pools, write

#: Environment variable naming the default store location.
STORE_ENV = "REPRO_SERVICE_STORE"

#: Default store path when ``REPRO_SERVICE_STORE`` is unset.
DEFAULT_STORE = ".repro/service.sqlite"

#: ``PRAGMA user_version`` this build reads and writes.
#: v1 = PR 4 base tables (results/campaigns/campaign_jobs);
#: v2 = PR 8 fleet tables (leases/job_attempts);
#: v3 = PR 10 per-row payload checksums (``results.checksum``).
#: v4 drops the warm-state ``snapshots`` table (nothing reads it).
SCHEMA_VERSION = 4

# v1 tables (PR 4).  Fresh stores are created straight at
# SCHEMA_VERSION, so ``results`` here already carries the v3 ``checksum``
# column; pre-versioning stores gain it through the v3 migration instead.
_BASE_TABLES = """
CREATE TABLE IF NOT EXISTS results (
    key        TEXT PRIMARY KEY,
    job_id     TEXT NOT NULL,
    experiment TEXT NOT NULL,
    workload   TEXT NOT NULL,
    rows_json  TEXT NOT NULL,
    created    REAL NOT NULL,
    checksum   TEXT
);
CREATE INDEX IF NOT EXISTS idx_results_job_id ON results(job_id);
CREATE INDEX IF NOT EXISTS idx_results_workload ON results(workload);
CREATE TABLE IF NOT EXISTS campaigns (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    name      TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    status    TEXT NOT NULL,
    created   REAL NOT NULL,
    finished  REAL
);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    campaign_id INTEGER NOT NULL,
    position    INTEGER NOT NULL,
    key         TEXT NOT NULL,
    PRIMARY KEY (campaign_id, position)
);
"""

# v2 tables (PR 8): the fleet's lease protocol and retry accounting.
_FLEET_TABLES = """
CREATE TABLE IF NOT EXISTS leases (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    worker     TEXT NOT NULL,
    status     TEXT NOT NULL,
    created    REAL NOT NULL,
    expires    REAL NOT NULL,
    heartbeats INTEGER NOT NULL DEFAULT 0,
    keys_json  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_leases_status ON leases(status);
CREATE TABLE IF NOT EXISTS job_attempts (
    key         TEXT PRIMARY KEY,
    attempts    INTEGER NOT NULL DEFAULT 0,
    quarantined INTEGER NOT NULL DEFAULT 0,
    last_error  TEXT,
    traceback   TEXT,
    updated     REAL NOT NULL
);
"""

_SCHEMA = _BASE_TABLES + _FLEET_TABLES


class StoreSchemaError(RuntimeError):
    """The store's schema version is ahead of this build: refuse to open
    (silently misreading a newer layout is the one unrecoverable move)."""


class StoreIntegrityError(RuntimeError):
    """A backup failed validation and was not installed."""


def row_checksum(rows_json: str) -> str:
    """Integrity checksum of one result row's payload text.

    The ``sha256:`` prefix names the algorithm so the format can evolve
    without a schema bump.  Computed over the exact stored ``rows_json``
    text — byte identity of the payload is the invariant ``fsck``
    verifies, matching the determinism contract everywhere else.
    """
    return "sha256:" + hashlib.sha256(rows_json.encode("utf-8")).hexdigest()


def _tables(conn: sqlite3.Connection) -> Set[str]:
    rows = conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ).fetchall()
    return {row[0] for row in rows}


def _detect_version(conn: sqlite3.Connection) -> int:
    """Effective schema version of an open store.

    Stores written before PR 10 never set ``user_version`` (it reads 0),
    so a zero is disambiguated by the table set: no ``results`` table
    means a brand-new file, a ``results`` table without ``leases`` is a
    PR 4-era v1 store, with ``leases`` a PR 8/9-era v2 store.
    """
    version = int(conn.execute("PRAGMA user_version").fetchone()[0])
    if version:
        return version
    present = _tables(conn)
    if "results" not in present:
        return 0
    return 2 if "leases" in present else 1


def _migrate_to_2(conn: sqlite3.Connection) -> None:
    conn.executescript(_FLEET_TABLES)


def _migrate_to_3(conn: sqlite3.Connection) -> None:
    columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
    if "checksum" not in columns:
        try:
            conn.execute("ALTER TABLE results ADD COLUMN checksum TEXT")
        except sqlite3.OperationalError as exc:
            # Two processes migrating the same legacy store can race the
            # ALTER; losing that race means the column exists — fine.
            if "duplicate column" not in str(exc):
                raise
    rows = conn.execute(
        "SELECT key, rows_json FROM results WHERE checksum IS NULL"
    ).fetchall()
    for row in rows:
        conn.execute(
            "UPDATE results SET checksum = ? WHERE key = ?",
            (row_checksum(row["rows_json"]), row["key"]),
        )


def _migrate_to_4(conn: sqlite3.Connection) -> None:
    conn.execute("DROP TABLE IF EXISTS snapshots")


#: Ordered migrations: ``_MIGRATIONS[v]`` upgrades a store from ``v - 1``
#: to ``v``.  Each step runs in its own transaction and stamps
#: ``user_version`` on success, so a crash mid-migration re-runs only the
#: interrupted step (every step is written to be re-runnable).
_MIGRATIONS = {2: _migrate_to_2, 3: _migrate_to_3, 4: _migrate_to_4}

#: Lease lifecycle states. ``active`` leases are the only ones the expiry
#: sweeper looks at; every terminal transition is recorded for ``GET
#: /workers`` fleet introspection.
LEASE_ACTIVE = "active"
LEASE_DONE = "done"
LEASE_EXPIRED = "expired"


def default_store_path() -> Path:
    """Store location: ``REPRO_SERVICE_STORE`` or ``.repro/service.sqlite``.

    The env read lives in :func:`repro.common.config.service_store_override`
    (RL005: all ``REPRO_*`` reads go through ``common/config.py``).
    """
    return Path(service_store_override() or DEFAULT_STORE)


class ResultStore:
    """Durable campaign/result storage over one sqlite file.

    ``checksums=False`` skips writing per-row payload checksums (rows
    read back as legacy/unverifiable to ``fsck``); it exists for the
    ``store_integrity`` benchmark arm and should stay on everywhere else.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 checksums: bool = True) -> None:
        from repro.service.events import EventLog

        self.path = Path(path) if path is not None else default_store_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.checksums = checksums
        self._pool = ConnectionPool(self.path, row_factory=sqlite3.Row)
        self._ensure_schema()
        # The events table shares this file (and its connections); its
        # DDL's one owner is EventLog.
        self.event_log = EventLog(self.path, pool=self._pool)

    # ------------------------------------------------------ schema versioning
    def _ensure_schema(self) -> None:
        """Create or migrate the store to :data:`SCHEMA_VERSION` in place.

        Refuses (``StoreSchemaError``) when the file was written by a
        newer build.  Migration steps run one at a time, each stamping
        ``user_version`` in its own transaction.
        """
        with self._connect() as conn:
            version = _detect_version(conn)
        if version > SCHEMA_VERSION:
            raise StoreSchemaError(
                f"store {self.path} has schema version {version}, newer than "
                f"this build's {SCHEMA_VERSION}; upgrade the code (or restore "
                f"an older backup) instead of opening it"
            )
        if version == 0:
            def create(conn: sqlite3.Connection) -> None:
                conn.executescript(_SCHEMA)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

            self._write(create)
            return
        for target in range(version + 1, SCHEMA_VERSION + 1):
            step = _MIGRATIONS[target]

            def apply(conn: sqlite3.Connection, _step=step, _target=target) -> None:
                _step(conn)
                conn.execute(f"PRAGMA user_version = {_target}")

            self._write(apply)

    def schema_version(self) -> int:
        with self._connect() as conn:
            return int(conn.execute("PRAGMA user_version").fetchone()[0])

    @staticmethod
    def exists(path: Optional[os.PathLike] = None) -> bool:
        """Whether a store file already exists (without creating one)."""
        return Path(path if path is not None else default_store_path()).is_file()

    def _connect(self) -> ContextManager[sqlite3.Connection]:
        """Borrow a pooled connection for one ``with`` block: committed
        when it ends, rolled back if it raises."""
        return self._pool.connection()

    def _write(self, mutate):
        """Run ``mutate(conn)`` in one retrying ``BEGIN IMMEDIATE``
        transaction (:func:`repro.common.sqlitedb.write`)."""
        return write(self._connect, mutate)

    def close(self) -> None:
        """Close the store's connections (its event log's included); an
        operation after this opens a fresh one."""
        self._pool.close()

    # ------------------------------------------------------------- results
    def _insert_results(
        self, conn: sqlite3.Connection,
        results: Sequence[Tuple[str, str, str, str, List[Dict[str, object]]]],
    ) -> None:
        """Insert ``(key, job_id, experiment, workload, rows)`` entries as
        JSON payloads with their checksums, in the caller's transaction.

        First-write-wins (``INSERT OR IGNORE``): results are deterministic,
        so a key is written at most once and a duplicated or late fleet
        results post is harmless.  A stored key is no longer quarantined
        (a late post can land after its key ran out of attempts), so
        ``job_attempts.quarantined`` means "no row and out of attempts".
        """
        now = time.time()
        entries = []
        for key, job_id, experiment, workload, rows in results:
            rows_json = json.dumps(rows)
            checksum = row_checksum(rows_json) if self.checksums else None
            entries.append(
                (key, job_id, experiment, workload, rows_json, now, checksum)
            )
        conn.executemany(
            "INSERT OR IGNORE INTO results "
            "(key, job_id, experiment, workload, rows_json, created, checksum) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)", entries,
        )
        conn.executemany(
            "UPDATE job_attempts SET quarantined = 0 "
            "WHERE key = ? AND quarantined = 1", [(entry[0],) for entry in entries],
        )

    def put_result(
        self, key: str, job_id: str, experiment: str, workload: str,
        rows: List[Dict[str, object]],
    ) -> None:
        """Store one job's rows (idempotent, see :meth:`_insert_results`)."""
        from repro.service import faults

        faults.fire("store.put_result", context=key)
        self._write(lambda conn: self._insert_results(
            conn, [(key, job_id, experiment, workload, rows)]
        ))

    def get_result(self, key: str) -> Optional[List[Dict[str, object]]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT rows_json FROM results WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else json.loads(row["rows_json"])

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Look one job up by its short id (``GET /jobs/<id>``)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT key, job_id, experiment, workload, rows_json, created "
                "FROM results WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["rows"] = json.loads(record.pop("rows_json"))
        return record

    def present_keys(self, keys: Sequence[str]) -> Set[str]:
        """The subset of ``keys`` that already has a stored result."""
        present: Set[str] = set()
        if not keys:
            return present
        with self._connect() as conn:
            chunk = 500  # stay under sqlite's bound-parameter limit
            for start in range(0, len(keys), chunk):
                part = list(keys[start:start + chunk])
                marks = ",".join("?" * len(part))
                rows = conn.execute(
                    f"SELECT key FROM results WHERE key IN ({marks})", part
                ).fetchall()
                present.update(row["key"] for row in rows)
        return present

    def query_results(
        self,
        experiment: Optional[str] = None,
        workload: Optional[str] = None,
        limit: int = 1000,
    ) -> List[Dict[str, Any]]:
        """Filterable result listing (``GET /results``)."""
        clauses, params = [], []
        if experiment:
            clauses.append("experiment = ?")
            params.append(experiment)
        if workload:
            clauses.append("workload = ?")
            params.append(workload)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key, job_id, experiment, workload, rows_json, created "
                f"FROM results {where} ORDER BY created, key LIMIT ?",
                (*params, int(limit)),
            ).fetchall()
        records = []
        for row in rows:
            record = dict(row)
            record["rows"] = json.loads(record.pop("rows_json"))
            records.append(record)
        return records

    # ----------------------------------------------------------- campaigns
    def create_campaign(self, spec_json: str, name: str, keys: Sequence[str]) -> int:
        def mutate(conn: sqlite3.Connection) -> int:
            cursor = conn.execute(
                "INSERT INTO campaigns (name, spec_json, status, created) "
                "VALUES (?, ?, 'running', ?)",
                (name, spec_json, time.time()),
            )
            campaign_id = int(cursor.lastrowid)
            conn.executemany(
                "INSERT INTO campaign_jobs (campaign_id, position, key) "
                "VALUES (?, ?, ?)",
                [(campaign_id, position, key) for position, key in enumerate(keys)],
            )
            return campaign_id

        return self._write(mutate)

    def set_campaign_status(
        self, campaign_id: int, status: str,
        events: Sequence[Tuple[str, Dict[str, Any]]] = (),
    ) -> None:
        """Write ``status``; ``events`` are appended to the event log in the
        same transaction, so a reader sees both or neither."""
        finished = time.time() if status in ("done", "failed", "cancelled") else None

        def mutate(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE campaigns SET status = ?, finished = ? WHERE id = ?",
                (status, finished, campaign_id),
            )
            if events:
                self.event_log.insert(conn, campaign_id, events)

        self._write(mutate)

    def campaigns(self) -> List[Dict[str, Any]]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT c.id, c.name, c.status, c.created, c.finished, "
                "       COUNT(j.key) AS total, COUNT(r.key) AS stored "
                "FROM campaigns c "
                "LEFT JOIN campaign_jobs j ON j.campaign_id = c.id "
                "LEFT JOIN results r ON r.key = j.key "
                "GROUP BY c.id ORDER BY c.id"
            ).fetchall()
        return [dict(row) for row in rows]

    def campaign(self, campaign_id: int) -> Optional[Dict[str, Any]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT id, name, spec_json, status, created, finished "
                "FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
        return None if row is None else dict(row)

    def campaign_keys(self, campaign_id: int) -> List[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM campaign_jobs WHERE campaign_id = ? "
                "ORDER BY position", (campaign_id,)
            ).fetchall()
        return [row["key"] for row in rows]

    def campaign_rows(self, campaign_id: int) -> List[Optional[List[Dict[str, object]]]]:
        """Each job's stored rows in campaign order (``None`` = not yet run)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT r.rows_json AS rows_json "
                "FROM campaign_jobs j LEFT JOIN results r ON r.key = j.key "
                "WHERE j.campaign_id = ? ORDER BY j.position", (campaign_id,)
            ).fetchall()
        return [
            None if row["rows_json"] is None else json.loads(row["rows_json"])
            for row in rows
        ]

    def merged_rows(self, campaign_id: int) -> List[Dict[str, object]]:
        """The campaign's stored rows merged in campaign order (a job not yet
        run contributes none): the one read every campaign table renders."""
        return [
            row for rows in self.campaign_rows(campaign_id) if rows for row in rows
        ]

    def unfinished_campaigns(self) -> List[Dict[str, Any]]:
        """Campaigns still ``running`` (crash-resume).  Every other status is
        terminal, ``superseded`` included: older builds marked a resumed
        record so, and it is never resumed again."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT id, name, spec_json, status, created FROM campaigns "
                "WHERE status = 'running' ORDER BY id"
            ).fetchall()
        return [dict(row) for row in rows]

    # -------------------------------------------------------------- leases
    def _lease_events(
        self, conn: sqlite3.Connection, lease_id: int,
        campaign_id: Optional[int], events: Sequence[Tuple[str, Dict[str, Any]]],
    ) -> None:
        """Append a lease transition's events, each naming the lease."""
        if events and campaign_id is not None:
            self.event_log.insert(conn, campaign_id, [
                (type, {**data, "lease_id": lease_id}) for type, data in events
            ])

    def create_lease(
        self, worker: str, keys: Sequence[str], ttl: float,
        now: Optional[float] = None, campaign_id: Optional[int] = None,
        events: Sequence[Tuple[str, Dict[str, Any]]] = (),
    ) -> int:
        """Record a new active lease of ``keys`` held by ``worker``, expiring
        ``ttl`` seconds after ``now``; ``events`` are appended to the
        campaign's log in the same transaction."""
        now = time.time() if now is None else now

        def mutate(conn: sqlite3.Connection) -> int:
            cursor = conn.execute(
                "INSERT INTO leases (worker, status, created, expires, "
                "heartbeats, keys_json) VALUES (?, ?, ?, ?, 0, ?)",
                (worker, LEASE_ACTIVE, now, now + ttl, json.dumps(list(keys))),
            )
            lease_id = int(cursor.lastrowid)
            self._lease_events(conn, lease_id, campaign_id, events)
            return lease_id

        return self._write(mutate)

    def heartbeat_lease(
        self, lease_id: int, ttl: float, now: Optional[float] = None,
    ) -> Optional[float]:
        """Extend an active lease's expiry; ``None`` if it is not active."""
        expires = (time.time() if now is None else now) + ttl

        def mutate(conn: sqlite3.Connection) -> Optional[float]:
            updated = conn.execute(
                "UPDATE leases SET expires = ?, heartbeats = heartbeats + 1 "
                "WHERE id = ? AND status = ?",
                (expires, lease_id, LEASE_ACTIVE),
            ).rowcount
            return expires if updated else None

        return self._write(mutate)

    def finish_lease(
        self, lease_id: int, status: str = LEASE_DONE,
        results: Sequence[Tuple[str, str, str, str, List[Dict[str, object]]]] = (),
        campaign_id: Optional[int] = None,
        events: Sequence[Tuple[str, Dict[str, Any]]] = (),
    ) -> bool:
        """Settle a lease in one transaction: its ``results`` (see
        :meth:`_insert_results`), its terminal ``status`` and its events.

        Returns ``False`` if the lease was not active (the caller lost a
        race with the sweeper or posted a duplicate); its results are
        stored all the same.
        """

        def mutate(conn: sqlite3.Connection) -> bool:
            if results:
                self._insert_results(conn, results)
            active = bool(conn.execute(
                "UPDATE leases SET status = ? WHERE id = ? AND status = ?",
                (status, lease_id, LEASE_ACTIVE),
            ).rowcount)
            self._lease_events(conn, lease_id, campaign_id, events)
            return active

        return self._write(mutate)

    def lease(self, lease_id: int) -> Optional[Dict[str, Any]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT id, worker, status, created, expires, heartbeats, "
                "keys_json FROM leases WHERE id = ?", (lease_id,)
            ).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["keys"] = json.loads(record.pop("keys_json"))
        return record

    def workers(self) -> List[Dict[str, Any]]:
        """Fleet view: per-worker lease counts and last activity
        (``GET /workers``)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT worker, "
                "       COUNT(*) AS leases, "
                "       SUM(status = 'active')  AS active, "
                "       SUM(status = 'done')    AS done, "
                "       SUM(status = 'expired') AS expired, "
                "       MAX(created) AS last_lease "
                "FROM leases GROUP BY worker ORDER BY worker"
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------- attempts
    def record_attempt(
        self, key: str, error: str, traceback_text: Optional[str] = None,
    ) -> int:
        """Count one failed attempt of ``key``; returns the new total."""

        def mutate(conn: sqlite3.Connection) -> int:
            conn.execute(
                "INSERT INTO job_attempts (key, attempts, last_error, "
                "traceback, updated) VALUES (?, 1, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "attempts = attempts + 1, last_error = excluded.last_error, "
                "traceback = excluded.traceback, updated = excluded.updated",
                (key, error, traceback_text, time.time()),
            )
            row = conn.execute(
                "SELECT attempts FROM job_attempts WHERE key = ?", (key,)
            ).fetchone()
            return int(row["attempts"])

        return self._write(mutate)

    def quarantine(self, key: str) -> None:
        """Mark ``key`` poison: no further retries until attempts reset."""
        self._write(lambda conn: conn.execute(
            "UPDATE job_attempts SET quarantined = 1, updated = ? "
            "WHERE key = ?", (time.time(), key),
        ))

    def attempt_record(self, key: str) -> Optional[Dict[str, Any]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT key, attempts, quarantined, last_error, traceback, "
                "updated FROM job_attempts WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else dict(row)

    def quarantined_keys(self, campaign_id: int) -> Dict[str, str]:
        """``key -> last error`` for the campaign's keys that are quarantined
        (no row and out of attempts)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT a.key, a.last_error FROM campaign_jobs j "
                "JOIN job_attempts a ON a.key = j.key "
                "WHERE j.campaign_id = ? AND a.quarantined = 1", (campaign_id,)
            ).fetchall()
        return {row["key"]: row["last_error"] for row in rows}

    def reset_attempts(self, keys: Sequence[str]) -> None:
        """Clear failure history for ``keys`` (a fresh submission grants a
        fresh retry budget, so quarantine never becomes a permanent ban)."""
        if not keys:
            return

        def mutate(conn: sqlite3.Connection) -> None:
            chunk = 500
            for start in range(0, len(keys), chunk):
                part = list(keys[start:start + chunk])
                marks = ",".join("?" * len(part))
                conn.execute(
                    f"DELETE FROM job_attempts WHERE key IN ({marks})", part
                )

        self._write(mutate)

    # ------------------------------------------- integrity & disaster recovery
    def fsck(self, repair: bool = False) -> Dict[str, Any]:
        """Verify store integrity; with ``repair=True`` delete exactly the
        corrupt result rows.

        Three layers of checking: sqlite's own ``PRAGMA integrity_check``
        (page/b-tree damage), JSON validity of every payload (truncated
        writes), and the per-row SHA-256 checksum (silent bit corruption).
        Rows written with ``checksums=False`` (or by a pre-v3 build whose
        backfill was bypassed) have no checksum and are only JSON-checked;
        their count is reported as ``unverifiable``.

        Repair deletes *only* the corrupt rows — campaign membership
        survives, so resubmitting the affected campaigns recomputes
        exactly the damaged points and reuses every intact one.
        """
        corrupt: List[Dict[str, str]] = []
        total = 0
        unverifiable = 0
        with self._connect() as conn:
            integrity = conn.execute("PRAGMA integrity_check").fetchone()[0]
            for row in conn.execute(
                "SELECT key, rows_json, checksum FROM results ORDER BY key"
            ):
                total += 1
                problem = None
                try:
                    payload = json.loads(row["rows_json"])
                    if not isinstance(payload, list):
                        problem = "payload is not a row list"
                except (json.JSONDecodeError, TypeError):
                    problem = "payload is not valid JSON"
                if problem is None and row["checksum"] is not None \
                        and row["checksum"] != row_checksum(row["rows_json"]):
                    problem = "checksum mismatch"
                if row["checksum"] is None:
                    unverifiable += 1
                if problem is not None:
                    corrupt.append({"key": row["key"], "reason": problem})
        report: Dict[str, Any] = {
            "path": str(self.path),
            "schema_version": self.schema_version(),
            "results": total,
            "integrity_check": integrity,
            "corrupt": corrupt,
            "unverifiable": unverifiable,
            "ok": integrity == "ok" and not corrupt,
        }
        if repair and corrupt:
            keys = [entry["key"] for entry in corrupt]

            def mutate(conn: sqlite3.Connection) -> int:
                deleted = 0
                chunk = 500
                for start in range(0, len(keys), chunk):
                    part = keys[start:start + chunk]
                    marks = ",".join("?" * len(part))
                    deleted += conn.execute(
                        f"DELETE FROM results WHERE key IN ({marks})", part
                    ).rowcount
                return deleted

            report["repaired"] = self._write(mutate)
        elif repair:
            report["repaired"] = 0
        return report

    def checkpoint(self) -> Dict[str, Any]:
        """Flush the WAL into the main database file (graceful-drain exit
        step: the store is then a single self-contained file)."""
        with self._connect() as conn:
            row = conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        return {"busy": row[0], "wal_pages": row[1], "checkpointed": row[2]}

    def backup(self, dest: os.PathLike) -> Dict[str, Any]:
        """Online backup to ``dest`` via sqlite's backup API.

        Safe under concurrent writers: the backup API snapshots a
        consistent point-in-time image (WAL included) without blocking
        the fleet — rows landing after the snapshot simply miss the
        backup and recompute on a restored store.
        """
        dest_path = Path(dest)
        dest_path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as source:
            out = sqlite3.connect(dest_path)
            try:
                source.backup(out)
            finally:
                out.close()
        with sqlite3.connect(dest_path) as check:
            results = check.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        check.close()
        return {
            "path": str(dest_path),
            "bytes": dest_path.stat().st_size,
            "results": int(results),
            "schema_version": self.schema_version(),
        }

    @classmethod
    def restore(cls, backup_path: os.PathLike,
                store_path: os.PathLike) -> "ResultStore":
        """Validate ``backup_path`` and install it at ``store_path``.

        The backup must open, pass ``PRAGMA integrity_check``, and not
        come from a newer build; otherwise nothing is written.  Run this
        offline — restoring under a live service on the same path is a
        concurrent-writer corruption hazard by sqlite's own rules.  This
        process's idle connections to the path are closed first, so the
        restore's own connection is the file's last and checkpoints the
        restored image into it; a store that held them reopens the
        restored file on its next operation.  Returns the opened (and, if
        needed, migrated) store.
        """
        source_path = Path(backup_path)
        if not source_path.is_file():
            raise FileNotFoundError(f"backup not found: {source_path}")
        source = sqlite3.connect(source_path)
        try:
            integrity = source.execute("PRAGMA integrity_check").fetchone()[0]
            if integrity != "ok":
                raise StoreIntegrityError(
                    f"backup {source_path} fails integrity_check: {integrity}"
                )
            version = int(source.execute("PRAGMA user_version").fetchone()[0])
            if version > SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"backup {source_path} has schema version {version}, newer "
                    f"than this build's {SCHEMA_VERSION}"
                )
            target = Path(store_path)
            target.parent.mkdir(parents=True, exist_ok=True)
            close_pools(target)
            out = sqlite3.connect(target)
            try:
                source.backup(out)
            finally:
                out.close()
            # A stale WAL/SHM pair from the store's previous life must not
            # replay over the restored image.
            for suffix in ("-wal", "-shm"):
                sidecar = Path(str(target) + suffix)
                if sidecar.exists():
                    sidecar.unlink()
        finally:
            source.close()
        return cls(store_path)

    # ----------------------------------------------------------- lifecycle
    def stats(self) -> Dict[str, Any]:
        with self._connect() as conn:
            results = conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()["n"]
            campaigns = conn.execute("SELECT COUNT(*) AS n FROM campaigns").fetchone()["n"]
            leases = conn.execute("SELECT COUNT(*) AS n FROM leases").fetchone()["n"]
            quarantined = conn.execute(
                "SELECT COUNT(*) AS n FROM job_attempts WHERE quarantined = 1"
            ).fetchone()["n"]
            events = conn.execute("SELECT COUNT(*) AS n FROM events").fetchone()["n"]
        return {
            "path": str(self.path),
            "schema_version": self.schema_version(),
            "results": results,
            "campaigns": campaigns,
            "leases": leases,
            "quarantined": quarantined,
            "events": events,
            # Kept connections leave recent pages in the WAL until a
            # checkpoint, so the store's size is both files'.
            "bytes": sum(
                path.stat().st_size
                for path in (self.path, Path(str(self.path) + "-wal"))
                if path.exists()
            ),
        }

    def clear(self) -> Dict[str, int]:
        """Drop every stored result, campaign, lease and event (the full wipe)."""
        def mutate(conn: sqlite3.Connection) -> Dict[str, int]:
            return {
                "results": conn.execute("DELETE FROM results").rowcount,
                "campaigns": conn.execute("DELETE FROM campaigns").rowcount,
                "campaign_jobs": conn.execute("DELETE FROM campaign_jobs").rowcount,
                "leases": conn.execute("DELETE FROM leases").rowcount,
                "job_attempts": conn.execute("DELETE FROM job_attempts").rowcount,
                "events": conn.execute("DELETE FROM events").rowcount,
            }

        return self._write(mutate)

    def gc(self, keep_days: float) -> Dict[str, int]:
        """Age-based eviction: drop result and event rows older than
        ``keep_days`` days.

        Only the *stale* rows go; campaign membership (``campaigns`` /
        ``campaign_jobs``) is preserved, so resubmitting a campaign after a
        GC recomputes exactly the evicted points and reuses every survivor
        — the acceptance contract of the ``--gc`` entry point.  Returns the
        per-table eviction counts.
        """
        if keep_days < 0:
            raise ValueError("keep_days must be non-negative")
        cutoff = time.time() - keep_days * 86400.0
        with self._connect() as conn:
            counts = {
                "results": conn.execute(
                    "DELETE FROM results WHERE created < ?", (cutoff,)
                ).rowcount,
                "events": conn.execute(
                    "DELETE FROM events WHERE created < ?", (cutoff,)
                ).rowcount,
            }
        return counts
