"""Durability suite (PR 10): versioned schema, fsck, backup/restore, transport.

Four planes of coverage:

* **Transport** — :class:`~repro.service.transport.HttpTransport` against a
  scripted stub HTTP server: terminal statuses never retry, gateway
  statuses and truncated bodies do, a dead port exhausts the budget into
  :class:`TransportError`, and the ``transport.connect`` /
  ``transport.read`` fault sites ride through like real faults.
* **Schema** — synthetically old (pre-``user_version``) v1/v2 stores
  migrate in place on open with checksum backfill; a store stamped by a
  *newer* build refuses to open.
* **Integrity & disaster recovery** — flip one byte of a stored payload
  and ``fsck`` reports exactly that key; ``--repair`` deletes exactly the
  corrupt rows so resubmission recomputes exactly those; backup/restore
  round-trips bit-identically and rejects invalid input before writing
  anything.
* **Restart & drain** — the headline regression: the server is stopped
  *between* a worker's lease and its results post and restarted on the
  same port; the retrying transport rides it out and the post lands via
  the late-results path with zero rows lost.  Draining stops lease
  grants, leaves queued campaigns resumable, and a stop-requested worker
  exits 0.
"""

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.common.rng import backoff_delay as rng_backoff_delay
from repro.service import faults
from repro.service.api import make_server
from repro.service.cli import main as cli_main
from repro.service.events import CAMPAIGN_FINISHED, EventBus
from repro.service.faults import Fault, FaultPlan
from repro.service.presets import campaign as preset_campaign
from repro.service.scheduler import backoff_delay as scheduler_backoff_delay
from repro.service.service import Service
from repro.service.spec import Job
from repro.service.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreIntegrityError,
    StoreSchemaError,
    row_checksum,
)
from repro.service.transport import (
    RETRIES,
    TIMEOUT_S,
    HttpTransport,
    StatusError,
    TransportError,
)
from repro.service.worker import Worker

ACCESSES = 5_000


def tiny_campaign(**overrides):
    defaults = dict(workloads=("db2",), target_accesses=ACCESSES)
    defaults.update(overrides)
    return preset_campaign("fig09", **defaults)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans are process-global: never leak one across tests."""
    yield
    faults.install(None)


# --------------------------------------------------------------------------
# Scripted stub HTTP server for transport unit tests.
# --------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Routes are callables taking the handler; every request is logged to
    ``server.hits`` so tests can assert exact attempt counts."""

    def log_message(self, *args):  # noqa: D102 — silence request logging
        pass

    def _serve(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        with self.server.lock:
            self.server.hits.append(self.path)
        route = self.server.routes.get(self.path)
        if route is None:
            self.send_error(404, "no such route")
            return
        route(self)

    do_GET = _serve  # noqa: N815 (http.server API)
    do_POST = _serve  # noqa: N815


def _reply(handler, code, body: bytes, content_type="application/json"):
    handler.send_response(code)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


def _json_route(code, payload):
    body = json.dumps(payload).encode("utf-8")
    return lambda handler: _reply(handler, code, body)


@contextmanager
def stub_server(routes):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.routes = routes
    server.hits = []
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _fast_transport(url, retries=5):
    return HttpTransport(url, timeout=5, retries=retries,
                         backoff_base=0.001, backoff_cap=0.01)


def _dead_port():
    """A port with nothing listening: bind, read it, release it."""
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestTransport:
    def test_backoff_is_the_shared_fleet_schedule(self):
        # One schedule for both planes: the scheduler's re-export *is* the
        # common.rng function the transport sleeps on.
        assert scheduler_backoff_delay is rng_backoff_delay
        assert rng_backoff_delay("GET /x", 2) == rng_backoff_delay("GET /x", 2)
        assert rng_backoff_delay("GET /x", 0) == 0.0

    def test_round_trip_and_knob_defaults(self):
        assert (TIMEOUT_S, RETRIES) == (600.0, 5)
        with stub_server({"/ok": _json_route(200, {"ok": True})}) as (_, url):
            transport = HttpTransport(url)
            assert transport.timeout == TIMEOUT_S
            assert transport.retries == RETRIES
            assert transport.get("/ok") == {"ok": True}
            assert transport.post("/ok", {"x": 1}) == {"ok": True}
            given = HttpTransport(url, timeout=2.5, retries=3)
            assert (given.timeout, given.retries) == (2.5, 3)

    def test_terminal_status_never_retries(self):
        routes = {"/gone": _json_route(410, {"error": "lease gone"})}
        with stub_server(routes) as (server, url):
            with pytest.raises(StatusError) as err:
                _fast_transport(url).post("/gone", {})
            assert err.value.code == 410
            assert "lease gone" in err.value.body
            assert len(server.hits) == 1  # the answer cannot change: one try

    def test_gateway_status_retried_until_success(self):
        state = {"calls": 0}

        def flaky(handler):
            state["calls"] += 1
            if state["calls"] <= 2:
                _reply(handler, 503, b'{"error": "overloaded"}')
            else:
                _reply(handler, 200, b'{"ok": true}')

        with stub_server({"/flaky": flaky}) as (server, url):
            assert _fast_transport(url).get("/flaky") == {"ok": True}
            assert len(server.hits) == 3

    def test_truncated_body_is_retried(self):
        state = {"calls": 0}

        def truncating(handler):
            state["calls"] += 1
            if state["calls"] == 1:
                _reply(handler, 200, b'{"ok": tru')  # died mid-body
            else:
                _reply(handler, 200, b'{"ok": true}')

        with stub_server({"/t": truncating}) as (server, url):
            assert _fast_transport(url).get("/t") == {"ok": True}
            assert len(server.hits) == 2

    def test_dead_port_exhausts_budget(self):
        transport = HttpTransport(
            f"http://127.0.0.1:{_dead_port()}",
            timeout=1, retries=2, backoff_base=0.001, backoff_cap=0.01,
        )
        with pytest.raises(TransportError) as err:
            transport.get("/anything")
        assert err.value.attempts == 2
        assert err.value.last_error is not None

    def test_injected_connect_drop_rides_through(self):
        plan = FaultPlan([Fault(site="transport.connect", action="drop", count=1)])
        faults.install(plan)
        with stub_server({"/ok": _json_route(200, {"ok": True})}) as (server, url):
            assert _fast_transport(url).get("/ok") == {"ok": True}
            # First attempt was refused before it left; only one hit the wire.
            assert len(server.hits) == 1
        assert [entry["site"] for entry in plan.fired] == ["transport.connect"]

    def test_injected_read_drop_rides_through(self):
        plan = FaultPlan([Fault(site="transport.read", action="drop", count=1)])
        faults.install(plan)
        with stub_server({"/ok": _json_route(200, {"ok": True})}) as (server, url):
            assert _fast_transport(url).get("/ok") == {"ok": True}
            assert len(server.hits) == 2  # body truncated once, retried

    def test_non_dict_and_empty_replies(self):
        routes = {
            "/list": _json_route(200, [1, 2, 3]),
            "/empty": lambda handler: _reply(handler, 200, b""),
        }
        with stub_server(routes) as (_, url):
            transport = _fast_transport(url)
            assert transport.get("/list") == {"value": [1, 2, 3]}
            assert transport.get("/empty") == {}


# --------------------------------------------------------------------------
# Versioned schema: in-place migrations and newer-build refusal.
# --------------------------------------------------------------------------

# Hand-written copies of the historical layouts (v1 and v2 results without
# the v3 ``checksum`` column; v1 additionally lacks the fleet tables), as
# the builds that wrote them left them: ``user_version`` is set from v3 on.
_V1_DDL = """
CREATE TABLE results (
    key        TEXT PRIMARY KEY,
    job_id     TEXT NOT NULL,
    experiment TEXT NOT NULL,
    workload   TEXT NOT NULL,
    rows_json  TEXT NOT NULL,
    created    REAL NOT NULL
);
CREATE TABLE campaigns (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    name      TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    status    TEXT NOT NULL,
    created   REAL NOT NULL,
    finished  REAL
);
CREATE TABLE campaign_jobs (
    campaign_id INTEGER NOT NULL,
    position    INTEGER NOT NULL,
    key         TEXT NOT NULL,
    PRIMARY KEY (campaign_id, position)
);
"""

_V2_EXTRA_DDL = """
CREATE TABLE leases (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    worker     TEXT NOT NULL,
    status     TEXT NOT NULL,
    created    REAL NOT NULL,
    expires    REAL NOT NULL,
    heartbeats INTEGER NOT NULL DEFAULT 0,
    keys_json  TEXT NOT NULL
);
CREATE TABLE job_attempts (
    key         TEXT PRIMARY KEY,
    attempts    INTEGER NOT NULL DEFAULT 0,
    quarantined INTEGER NOT NULL DEFAULT 0,
    last_error  TEXT,
    traceback   TEXT,
    updated     REAL NOT NULL
);
"""


# Every build up to v3 also created the warm-state ``snapshots`` table.
_SNAPSHOTS_DDL = """
CREATE TABLE snapshots (
    key     TEXT PRIMARY KEY,
    payload BLOB NOT NULL,
    created REAL NOT NULL
);
INSERT INTO snapshots (key, payload, created) VALUES ('legacy-snap', x'00', 1.0);
"""

# The v3 layout adds the ``checksum`` column and stamps ``user_version``.
_V3_EXTRA_DDL = """
ALTER TABLE results ADD COLUMN checksum TEXT;
PRAGMA user_version = 3;
"""


def _make_legacy_store(path, version):
    conn = sqlite3.connect(path)
    conn.executescript(
        _V1_DDL
        + _SNAPSHOTS_DDL
        + (_V2_EXTRA_DDL if version >= 2 else "")
        + (_V3_EXTRA_DDL if version >= 3 else "")
    )
    rows_json = json.dumps([{"i": 1, "v": "legacy"}])
    conn.execute(
        "INSERT INTO results (key, job_id, experiment, workload, rows_json, "
        "created) VALUES (?, ?, ?, ?, ?, ?)",
        ("legacy-key", "legacy-job", "fig09", "db2", rows_json, 1.0),
    )
    if version >= 3:
        conn.execute("UPDATE results SET checksum = ?", (row_checksum(rows_json),))
    conn.commit()
    conn.close()
    return rows_json


def _raw_column(path, sql, params=()):
    conn = sqlite3.connect(path)
    try:
        return conn.execute(sql, params).fetchone()
    finally:
        conn.close()


class TestStoreSchema:
    def test_fresh_store_opens_at_current_version(self, tmp_path):
        store = ResultStore(tmp_path / "fresh.sqlite")
        assert store.schema_version() == SCHEMA_VERSION
        assert store.stats()["schema_version"] == SCHEMA_VERSION

    def test_fresh_store_creates_no_snapshots_table(self, tmp_path):
        path = tmp_path / "fresh.sqlite"
        ResultStore(path)
        conn = sqlite3.connect(path)
        try:
            tables = {
                name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%'"
                )
            }
        finally:
            conn.close()
        assert tables == {
            "results", "campaigns", "campaign_jobs", "leases", "job_attempts", "events",
        }

    @pytest.mark.parametrize("legacy_version", [1, 2, 3])
    def test_legacy_store_migrates_in_place(self, tmp_path, legacy_version):
        path = tmp_path / "legacy.sqlite"
        rows_json = _make_legacy_store(path, legacy_version)
        store = ResultStore(path)
        assert store.schema_version() == SCHEMA_VERSION
        # The v4 step drops the warm-state snapshots table and its rows.
        tables = _raw_column(
            path, "SELECT COUNT(*) FROM sqlite_master WHERE name = 'snapshots'"
        )[0]
        assert tables == 0
        # Data survives, the checksum backfill covers it, fleet tables exist.
        assert store.get_result("legacy-key") == json.loads(rows_json)
        checksum = _raw_column(
            path, "SELECT checksum FROM results WHERE key = ?", ("legacy-key",)
        )[0]
        assert checksum == row_checksum(rows_json)
        assert store.attempt_record("legacy-key") is None  # v2 table usable
        report = store.fsck()
        assert report["ok"] and report["unverifiable"] == 0

    def test_newer_store_refuses_to_open(self, tmp_path):
        path = tmp_path / "future.sqlite"
        ResultStore(path)  # create at the current version
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError):
            ResultStore(path)

    def test_checksums_off_rows_are_unverifiable_not_corrupt(self, put_result, tmp_path):
        store = ResultStore(tmp_path / "nochk.sqlite", checksums=False)
        put_result(store, "k", "j", "fig09", "db2", [{"i": 1}])
        report = store.fsck()
        assert report["ok"] and report["unverifiable"] == 1


# --------------------------------------------------------------------------
# fsck: exact corruption reporting, exact repair, exact recompute.
# --------------------------------------------------------------------------


def _seeded_store(put_result, tmp_path, n=3):
    store = ResultStore(tmp_path / "seeded.sqlite")
    for index in range(n):
        put_result(store, f"k{index}", f"j{index}", "fig09", "db2",
                         [{"i": index}])
    return store


def _corrupt_row(store, key, rows_json):
    """Overwrite one row's payload directly, bypassing the store (which
    would recompute the checksum) — simulated silent bit corruption."""
    conn = sqlite3.connect(store.path)
    conn.execute("UPDATE results SET rows_json = ? WHERE key = ?",
                 (rows_json, key))
    conn.commit()
    conn.close()


class TestFsck:
    def test_clean_store_is_ok(self, put_result, tmp_path):
        report = _seeded_store(put_result, tmp_path).fsck()
        assert report["ok"] and report["results"] == 3
        assert report["corrupt"] == [] and report["integrity_check"] == "ok"

    def test_flipped_byte_reported_exactly(self, put_result, tmp_path):
        store = _seeded_store(put_result, tmp_path)
        # One byte differs, JSON still valid: only the checksum catches it.
        _corrupt_row(store, "k1", json.dumps([{"i": 9}]))
        report = store.fsck()
        assert not report["ok"]
        assert report["corrupt"] == [{"key": "k1", "reason": "checksum mismatch"}]

    def test_truncated_payload_reported_exactly(self, put_result, tmp_path):
        store = _seeded_store(put_result, tmp_path)
        _corrupt_row(store, "k2", '[{"i": 2')  # write died mid-payload
        report = store.fsck()
        assert [entry["key"] for entry in report["corrupt"]] == ["k2"]
        assert report["corrupt"][0]["reason"] == "payload is not valid JSON"

    def test_repair_deletes_exactly_the_corrupt_rows(self, put_result, tmp_path):
        store = _seeded_store(put_result, tmp_path)
        _corrupt_row(store, "k0", json.dumps([{"i": 99}]))
        report = store.fsck(repair=True)
        assert report["repaired"] == 1
        assert store.get_result("k0") is None
        assert store.get_result("k1") == [{"i": 1}]
        assert store.fsck()["ok"]

    def test_repair_then_resubmit_recomputes_exactly_the_damaged_point(
        self, tmp_path
    ):
        store_path = tmp_path / "svc.sqlite"
        with Service(store_path=store_path, max_workers=1) as service:
            first = service.submit(tiny_campaign(), wait=True)
            assert first.status == "done" and first.computed == first.total
        store = ResultStore(store_path)
        victim = first.jobs[0].key
        _corrupt_row(store, victim, json.dumps([{"forged": True}]))
        report = store.fsck(repair=True)
        assert [entry["key"] for entry in report["corrupt"]] == [victim]
        with Service(store_path=store_path, max_workers=1) as service:
            second = service.submit(tiny_campaign(), wait=True)
            assert second.status == "done"
            assert second.computed == 1  # exactly the repaired point
            assert second.cached == second.total - 1


# --------------------------------------------------------------------------
# Backup/restore round-trips.
# --------------------------------------------------------------------------


def _results_dump(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT key, job_id, experiment, workload, rows_json, checksum "
            "FROM results ORDER BY key"
        ).fetchall()
    finally:
        conn.close()


class TestBackupRestore:
    def test_round_trip_is_bit_identical(self, put_result, tmp_path):
        store = _seeded_store(put_result, tmp_path)
        backup_path = tmp_path / "out" / "backup.sqlite"
        report = store.backup(backup_path)
        assert report["results"] == 3 and backup_path.is_file()
        # A row landing *after* the snapshot misses the backup by design.
        put_result(store, "late", "j-late", "fig09", "db2", [{"i": 9}])
        restored = ResultStore.restore(backup_path, tmp_path / "restored.sqlite")
        assert restored.fsck()["ok"]
        assert restored.get_result("late") is None
        assert _results_dump(restored.path) == _results_dump(backup_path)

    def test_round_trip_carries_campaign_records(self, put_result, tmp_path):
        """A backup is the whole store: campaign records with their key
        lists and statuses, attempt flags and event streams restore with
        the results, so a restored campaign renders and resumes as before."""
        store = _seeded_store(put_result, tmp_path)
        keys = ["k0", "k1", "pending"]
        campaign_id = store.create_campaign('{"name": "arch"}', "arch", keys)
        store.set_campaign_status(campaign_id, "failed")
        store.record_attempt("pending", "RuntimeError: boom")
        store.quarantine("pending")
        EventBus(store.event_log).publish(
            campaign_id, CAMPAIGN_FINISHED, {"status": "failed"}
        )
        backup_path = tmp_path / "backup.sqlite"
        store.backup(backup_path)
        restored = ResultStore.restore(backup_path, tmp_path / "restored.sqlite")
        assert restored.campaigns() == store.campaigns()
        assert restored.campaign(campaign_id)["status"] == "failed"
        assert restored.campaign_keys(campaign_id) == keys
        assert restored.merged_rows(campaign_id) == [{"i": 0}, {"i": 1}]
        assert restored.quarantined_keys(campaign_id) == {
            "pending": "RuntimeError: boom"
        }
        assert [
            (event.seq, event.type, event.data)
            for event in restored.event_log.after(campaign_id, 0)
        ] == [(1, CAMPAIGN_FINISHED, {"status": "failed"})]

    def test_restore_onto_a_store_this_process_opened(self, put_result, tmp_path):
        """Restoring over a path this process has open and has written
        installs the backup: the store reopens, reads the backup's rows
        (not the rows written after it) and passes fsck."""
        backup_path = tmp_path / "backup.sqlite"
        _seeded_store(put_result, tmp_path).backup(backup_path)
        target = tmp_path / "live.sqlite"
        live = ResultStore(target)
        put_result(live, "written", "j-w", "fig09", "db2", [{"i": 7}])
        restored = ResultStore.restore(backup_path, target)
        reopened = ResultStore(target)
        for store in (restored, reopened, live):
            assert [store.get_result(f"k{i}") for i in range(3)] == [
                [{"i": 0}], [{"i": 1}], [{"i": 2}]
            ]
            assert store.get_result("written") is None
        report = reopened.fsck()
        assert report["ok"] and report["results"] == 3

    def test_restore_missing_backup_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore.restore(tmp_path / "nope.sqlite", tmp_path / "t.sqlite")

    def test_restore_rejects_garbage_without_installing(self, tmp_path):
        bad = tmp_path / "bad.sqlite"
        bad.write_bytes(b"not a sqlite file at all" * 40)
        target = tmp_path / "target.sqlite"
        with pytest.raises((StoreIntegrityError, sqlite3.DatabaseError)):
            ResultStore.restore(bad, target)
        assert not target.exists()

    def test_restore_rejects_newer_backup(self, put_result, tmp_path):
        store = _seeded_store(put_result, tmp_path)
        backup_path = tmp_path / "backup.sqlite"
        store.backup(backup_path)
        conn = sqlite3.connect(backup_path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        target = tmp_path / "target.sqlite"
        with pytest.raises(StoreSchemaError):
            ResultStore.restore(backup_path, target)
        assert not target.exists()


# --------------------------------------------------------------------------
# CLI durability verbs (exit codes; the store plumbing is covered above).
# --------------------------------------------------------------------------


class TestDurabilityCli:
    def test_fsck_detect_repair_and_backup_restore(self, put_result, tmp_path, capsys):
        store_path = tmp_path / "cli.sqlite"
        store = ResultStore(store_path)
        put_result(store, "k", "j", "fig09", "db2", [{"i": 1}])
        base = ["--store", str(store_path)]
        assert cli_main(base + ["fsck"]) == 0
        _corrupt_row(store, "k", json.dumps([{"i": 2}]))
        assert cli_main(base + ["fsck"]) == 1
        assert cli_main(base + ["fsck", "--repair"]) == 0
        assert cli_main(base + ["fsck"]) == 0
        backup_path = tmp_path / "cli-backup.sqlite"
        assert cli_main(base + ["backup", str(backup_path)]) == 0
        restored_path = tmp_path / "cli-restored.sqlite"
        assert cli_main(
            ["--store", str(restored_path), "restore", str(backup_path)]
        ) == 0
        assert cli_main(
            ["--store", str(restored_path), "restore", str(tmp_path / "no")]
        ) == 1
        capsys.readouterr()  # drain the reports; content asserted store-side


# --------------------------------------------------------------------------
# Graceful drain and the server-restart regression.
# --------------------------------------------------------------------------


class TestDrain:
    def test_draining_stops_lease_grants_and_campaign_resumes(self, tmp_path):
        store_path = tmp_path / "drain.sqlite"
        service = Service(
            store_path=store_path, max_workers=1, local_compute=False,
            batch_size=1, lease_ttl_s=30.0,
        )
        try:
            run = service.submit(tiny_campaign(), wait=False)
            deadline = time.time() + 10
            while service.scheduler._queue.qsize() == 0 and time.time() < deadline:
                time.sleep(0.02)
            report = service.drain(deadline_s=2.0)
            assert report["settled"] is True
            assert report["live_leases"] == 0
            assert "checkpoint" in report
            # Draining: no new leases, even with batches queued.
            assert service.lease_next("w1") is None
        finally:
            service.close()
        # The campaign was left non-terminal: a fresh local service resumes
        # and finishes it from the store.
        with Service(
            store_path=store_path, max_workers=1, resume=True
        ) as service:
            runs = {r.campaign.name: r for r in service.scheduler.runs.values()}
            assert runs, "drained campaign should resume"
            resumed = service.wait(next(iter(runs.values())), timeout=120)
            assert resumed.status == "done"
        store = ResultStore(store_path)
        assert store.present_keys([job.key for job in run.jobs]) == {
            job.key for job in run.jobs
        }

    def test_drain_waits_for_a_local_lease_and_leaves_the_queue(
        self, tmp_path, monkeypatch,
    ):
        """A local slot mid-batch holds a lease: drain() waits for it to
        settle, grants nothing more, and leaves the other batches queued;
        a later resume() finishes the campaign without recomputing the
        stored job."""
        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch
        started, release = threading.Event(), threading.Event()

        def gated_execute(batch):
            started.set()
            assert release.wait(30)
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", gated_execute)
        store_path = tmp_path / "drain-local.sqlite"
        keys = [job.key for job in tiny_campaign().jobs()]
        service = Service(store_path=store_path, max_workers=1, batch_size=1)
        try:
            service.submit(tiny_campaign(), wait=False)
            assert started.wait(30)
            report = {}
            drainer = threading.Thread(
                target=lambda: report.update(service.drain(deadline_s=30.0))
            )
            drainer.start()
            time.sleep(0.3)
            assert drainer.is_alive(), "drain returned while a local lease ran"
            release.set()
            drainer.join(30)
            assert not drainer.is_alive()
            assert report["settled"] is True and report["live_leases"] == 0
            assert report["queued_batches"] == len(keys) - 1
        finally:
            service.close()
        stored = ResultStore(store_path).present_keys(keys)
        assert len(stored) == 1

        executed = []

        def counting_execute(batch):
            executed.extend(job.key for job in batch)
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", counting_execute)
        with Service(store_path=store_path, max_workers=1, resume=True) as fresh:
            resumed = list(fresh.scheduler.runs.values())
            assert len(resumed) == 1
            assert fresh.wait(resumed[0], timeout=120).status == "done"
        assert sorted(executed) == sorted(set(keys) - stored)

    def test_stop_requested_worker_exits_zero_without_polling(self):
        worker = Worker(f"http://127.0.0.1:{_dead_port()}", worker_id="wd",
                        poll_interval=0.01)
        worker.request_stop()
        assert worker.run() == 0


class TestServerRestartBetweenLeaseAndPost:
    """The satellite regression: the server goes away *between* a worker's
    lease and its results post and comes back on the same port — the
    retrying transport rides it out and zero results are lost."""

    def test_results_post_rides_through_restart(self, tmp_path):
        store_path = tmp_path / "restart.sqlite"
        service = Service(
            store_path=store_path, max_workers=1, local_compute=False,
            batch_size=1, lease_ttl_s=60.0,
        )
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        restarted = {}
        try:
            service.submit(tiny_campaign(), wait=False)
            transport = HttpTransport(url, timeout=10, retries=40,
                                      backoff_base=0.05, backoff_cap=0.25)
            deadline = time.time() + 30
            lease = {}
            while lease.get("lease_id") is None and time.time() < deadline:
                lease = transport.post("/leases", {"worker": "w1", "max_jobs": 1})
                if lease.get("lease_id") is None:
                    time.sleep(0.05)
            assert lease.get("lease_id") is not None
            outcomes = []
            for data in lease["jobs"]:
                job = Job.from_wire(data)
                outcomes.append({
                    "key": job.key, "job_id": job.job_id,
                    "workload": job.workload, "experiment": job.experiment,
                    "rows": job.execute(), "error": None,
                })
            # Hard-stop the whole deployment between lease and post.
            server.shutdown()
            server.server_close()
            service.close()

            def bring_back():
                time.sleep(0.8)
                try:
                    restarted["service"] = Service(
                        store_path=store_path, max_workers=1,
                        local_compute=False, resume=True,
                    )
                    restarted["server"] = make_server(
                        restarted["service"], port=port
                    )
                    threading.Thread(
                        target=restarted["server"].serve_forever, daemon=True
                    ).start()
                except Exception as exc:  # surfaces as TransportError below
                    restarted["error"] = exc

            threading.Thread(target=bring_back, daemon=True).start()
            # This post starts while the port is dead and must ride through.
            reply = transport.post(
                f"/leases/{lease['lease_id']}/results", {"outcomes": outcomes}
            )
            assert restarted.get("error") is None
            assert reply["ok"] is True
            assert reply["stored"] == len(outcomes)
            # The restarted scheduler never saw this lease: the post landed
            # via the loss-proof late-results path.
            assert reply["duplicate"] is True
        finally:
            if "server" in restarted:
                restarted["server"].shutdown()
                restarted["server"].server_close()
            if "service" in restarted:
                restarted["service"].close()
        store = ResultStore(store_path)
        for outcome in outcomes:
            assert store.get_result(outcome["key"]) == outcome["rows"]
