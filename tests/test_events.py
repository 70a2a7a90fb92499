"""Tests for the campaign telemetry plane (``repro.service.events``).

Covers the durable event log (gapless per-campaign sequence numbers, also
under concurrent publishers), the wakeup-token bus, SSE parsing and the
loopback ``GET /campaigns/<id>/events`` stream — including the
reconnect-with-``Last-Event-ID`` contract: a client killed mid-stream that
reconnects with its cursor sees exactly the store's event rows, zero lost
and zero duplicated, even under injected ``events.notify`` drop/duplicate
fault plans.  Plus the metrics registry, the scheduler's event emission
(exactly one ``job.completed`` per job, rows bit-identical to the store),
partial tables with their completeness, the per-state campaign breakdown,
worker liveness, and the CLI event formatter.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.common import sqlitedb
from repro.service import api, faults
from repro.service.api import make_server
from repro.service.cli import format_event_line
from repro.service.events import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_SUBMITTED,
    EVENT_TYPES,
    JOB_CACHED,
    JOB_COMPLETED,
    JOB_QUEUED,
    EventBus,
    EventLog,
    follow_campaign,
    parse_sse,
    sse_events,
)
from repro.service.faults import Fault, FaultPlan
from repro.service.metrics import MetricsRegistry
from repro.service.presets import campaign as preset_campaign
from repro.service.service import Service, render_stored_campaign, stored_progress
from repro.service.store import ResultStore
from repro.service.worker import Worker

#: Small but non-trivial trace size (streams actually form).
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


@pytest.fixture()
def log(tmp_path):
    return EventLog(tmp_path / "events.sqlite")


class _LiveServer:
    """A Service behind a loopback HTTP server (the tests' fleet shape)."""

    def __init__(self, tmp_path, **service_kw):
        service_kw.setdefault("max_workers", 1)
        self.service = Service(store_path=tmp_path / "s.sqlite", **service_kw)
        self.server = make_server(self.service, port=0)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


@pytest.fixture()
def live(tmp_path):
    server = _LiveServer(tmp_path)
    yield server
    server.close()


def _expect_exact_stream(events, log, campaign_id):
    """The streamed (id, type) sequence equals the log's rows exactly."""
    stored = log.after(campaign_id, 0, limit=100_000)
    assert [(e["id"], e["event"]) for e in events] == [
        (e.seq, e.type) for e in stored
    ]


# --------------------------------------------------------------------- log
class TestEventLog:
    def test_seq_is_gapless_and_per_campaign(self, log):
        for n in range(3):
            (event,) = log.append_many(1, [("job.queued", {"n": n})])
            assert event.seq == n + 1
        assert log.append_many(2, [("job.queued", {})])[0].seq == 1  # independent stream
        assert log.after(1, 0)[-1].seq == 3
        assert log.count() == 4
        assert log.count(1) == 3

    def test_append_many_allocates_one_range(self, log):
        events = log.append_many(7, [("a", {}), ("b", {}), ("c", {})])
        assert [e.seq for e in events] == [1, 2, 3]
        assert [e.type for e in log.after(7, 0)] == ["a", "b", "c"]

    def test_after_is_strictly_greater_and_paginated(self, log):
        log.append_many(1, [("t", {"n": n}) for n in range(10)])
        page = log.after(1, 4, limit=3)
        assert [e.seq for e in page] == [5, 6, 7]
        assert log.after(1, 10) == []

    def test_concurrent_publishers_stay_gapless(self, log):
        def publish():
            for _ in range(25):
                log.append_many(1, [("t", {})])

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = [e.seq for e in log.after(1, 0, limit=1000)]
        assert seqs == list(range(1, 101))

    def test_data_round_trips_exactly(self, log):
        data = {"rows": [{"coverage": 0.1 + 0.2}], "error": None}
        log.append_many(1, [("job.completed", data)])
        assert log.after(1, 0)[0].data == data


# --------------------------------------------------------------------- bus
class TestEventBus:
    def test_disabled_bus_appends_nothing(self, log):
        bus = EventBus(log, enabled=False)
        assert bus.publish(1, "t", {}) is None
        assert log.count() == 0
        assert EventBus(None, enabled=True).enabled is False

    def test_notifications_wake_subscribers(self, log):
        bus = EventBus(log)
        subscription = bus.subscribe(1)
        bus.publish(1, "t", {})
        assert subscription.get(timeout=1) is True
        # Coalescing: many publishes while asleep still fit the one-slot
        # queue — consumers drain the log from a cursor, not the queue.
        for _ in range(5):
            bus.publish(1, "t", {})
        assert log.count(1) == 6
        bus.unsubscribe(1, subscription)
        bus.publish(1, "t", {})
        assert log.count(1) == 7

    def test_notify_faults_never_touch_the_log(self, log):
        plan = FaultPlan([
            Fault(site="events.notify", action="drop", after=1),
            Fault(site="events.notify", action="duplicate", after=2),
        ])
        faults.install(plan)
        bus = EventBus(log)
        subscription = bus.subscribe(1)
        bus.publish(1, "t", {"n": 1})  # dropped notification
        assert subscription.empty()
        bus.publish(1, "t", {"n": 2})  # duplicated notification
        assert subscription.get(timeout=1) is True
        assert [e.data["n"] for e in bus.log.after(1, 0)] == [1, 2]


# ------------------------------------------------------------- SSE parsing
class TestSSEParsing:
    def test_frames_comments_and_ids(self):
        stream = (
            b": keepalive\n",
            b"id: 3\n",
            b"event: job.completed\n",
            b'data: {"key": "k"}\n',
            b"\n",
            b"event: campaign.finished\n",
            b'data: {"status": "done"}\n',
            b"\n",
        )
        events = list(parse_sse(iter(stream)))
        assert events == [
            {"id": 3, "event": "job.completed", "data": {"key": "k"}},
            {"id": 3, "event": "campaign.finished", "data": {"status": "done"}},
        ]

    def test_event_to_sse_round_trips(self, log):
        (event,) = log.append_many(1, [(JOB_COMPLETED, {"key": "k", "rows": [{"x": 1}]})])
        frames = event.to_sse().encode().splitlines(keepends=True)
        parsed = list(parse_sse(iter(frames)))
        assert parsed == [
            {"id": 1, "event": JOB_COMPLETED, "data": event.data}
        ]

    def test_format_event_line(self):
        line = format_event_line({
            "id": 12, "event": JOB_COMPLETED,
            "data": {"workload": "db2", "plane": "fleet", "job_id": "abc123"},
        })
        assert "[   12]" in line
        assert "job.completed" in line
        assert "workload=db2" in line
        assert "plane=fleet" in line
        assert "job=abc123" in line


# -------------------------------------------------------- scheduler events
class TestSchedulerEmission:
    def test_exactly_one_completion_per_job_rows_match_store(self, tmp_path):
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(tiny_campaign(), wait=True)
            assert run.status == "done"
            events = service.store.event_log.after(run.id, 0, limit=10_000)

            assert events[0].type == CAMPAIGN_SUBMITTED
            assert events[-1].type == CAMPAIGN_FINISHED
            assert events[-1].data["status"] == "done"
            assert all(e.type in EVENT_TYPES for e in events)

            queued = [e for e in events if e.type == JOB_QUEUED]
            completed = [e for e in events if e.type == JOB_COMPLETED]
            keys = [job.key for job in run.jobs]
            assert sorted(e.data["key"] for e in queued) == sorted(keys)
            assert sorted(e.data["key"] for e in completed) == sorted(keys)
            for event in completed:
                assert event.data["rows"] == service.store.get_result(
                    event.data["key"]
                )

            # Per-state breakdown settles to all-completed.
            states = service.progress(run.id)["states"]
            assert states["completed"] == run.total
            assert sum(states.values()) == run.total

    def test_resubmission_emits_cached_not_completed(self, tmp_path):
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            first = service.submit(tiny_campaign(), wait=True)
            rerun = service.submit(tiny_campaign(), wait=True)
            assert rerun.cached == rerun.total
            events = service.store.event_log.after(rerun.id, 0, limit=10_000)
            cached = [e for e in events if e.type == JOB_CACHED]
            assert len(cached) == first.total
            assert not [e for e in events if e.type == JOB_COMPLETED]
            assert events[-1].type == CAMPAIGN_FINISHED

    def test_disabled_events_change_nothing_but_the_log(self, tmp_path):
        with Service(store_path=tmp_path / "on.sqlite", max_workers=1) as on:
            run_on = on.submit(tiny_campaign(), wait=True)
            rows_on = on.results(run_on)
            assert on.store.event_log.count(run_on.id) > 0
        with Service(
            store_path=tmp_path / "off.sqlite", max_workers=1,
            events_enabled=False,
        ) as off:
            run_off = off.submit(tiny_campaign(), wait=True)
            assert off.store.event_log.count() == 0
            assert off.results(run_off) == rows_on

    def test_metrics_count_completions(self, tmp_path):
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(tiny_campaign(), wait=True)
            snapshot = service.metrics_snapshot("json")
            completed = snapshot["repro_jobs_completed_total"]
            assert sum(completed["values"].values()) == run.total
            text = service.metrics_snapshot("text")
            assert "# TYPE repro_jobs_completed_total counter" in text
            assert "repro_uptime_seconds" in text


# ------------------------------------------------------------- SSE streams
class TestSSEStream:
    def test_replay_of_finished_campaign_is_exact(self, live):
        run = live.service.submit(tiny_campaign(), wait=True)
        events = list(follow_campaign(live.url, run.id))
        _expect_exact_stream(events, live.service.store.event_log, run.id)
        assert events[-1]["event"] == CAMPAIGN_FINISHED

    def test_live_follow_sees_every_event(self, live):
        run = live.service.submit(tiny_campaign(), wait=False)
        events = list(follow_campaign(live.url, run.id))
        assert run.status == "done"
        _expect_exact_stream(events, live.service.store.event_log, run.id)
        completions = [e for e in events if e["event"] == JOB_COMPLETED]
        assert len(completions) == run.total

    def test_reconnect_with_last_event_id_loses_nothing(self, live):
        """Kill the client mid-stream; the resumed stream fills the gap."""
        run = live.service.submit(tiny_campaign(), wait=True)
        url = f"{live.url}/campaigns/{run.id}/events"

        first_half = []
        stream = sse_events(url)
        for event in stream:
            first_half.append(event)
            if len(first_half) == 4:
                stream.close()  # dead client: connection dropped mid-replay
                break
        cursor = first_half[-1]["id"]
        second_half = list(sse_events(url, last_event_id=cursor))
        _expect_exact_stream(
            first_half + second_half, live.service.store.event_log, run.id
        )

    def test_after_query_parameter_resumes_too(self, live):
        run = live.service.submit(tiny_campaign(), wait=True)
        log = live.service.store.event_log
        last = log.after(run.id, 0, limit=100_000)[-1].seq
        url = f"{live.url}/campaigns/{run.id}/events?after={last - 2}"
        tail = list(sse_events(url))
        assert [e["id"] for e in tail] == [last - 1, last]

    def test_unknown_campaign_is_404(self, live):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            list(sse_events(f"{live.url}/campaigns/999/events"))
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("action", ["drop", "duplicate"])
    def test_stream_is_exact_under_notify_faults(
        self, tmp_path, monkeypatch, action
    ):
        # A short keepalive poll so dropped wakeups cost milliseconds.
        monkeypatch.setattr(api, "EVENTS_POLL_S", 0.1)
        faults.install(FaultPlan([
            Fault(site="events.notify", action=action, after=1, count=0)
        ]))
        live = _LiveServer(tmp_path)
        try:
            run = live.service.submit(tiny_campaign(), wait=False)
            events = list(follow_campaign(live.url, run.id))
            assert run.status == "done"
            _expect_exact_stream(
                events, live.service.store.event_log, run.id
            )
            assert len(
                [e for e in events if e["event"] == JOB_COMPLETED]
            ) == run.total
        finally:
            live.close()

    def test_terminal_status_never_outruns_campaign_finished(
        self, tmp_path, monkeypatch
    ):
        """A stream that reads the terminal status still delivers
        ``campaign.finished``, however slowly the event's insert lands."""
        poll = 0.05
        monkeypatch.setattr(api, "EVENTS_POLL_S", poll)
        connect = sqlitedb.connect

        def slow_connect(path, row_factory=None):
            conn = connect(path, row_factory=row_factory)
            conn.create_function("stall", 0, lambda: time.sleep(20 * poll))
            return conn

        monkeypatch.setattr(sqlitedb, "connect", slow_connect)
        live = _LiveServer(tmp_path)
        try:
            with live.service.store._connect() as conn:
                conn.execute(
                    "CREATE TRIGGER stall_finished BEFORE INSERT ON events "
                    f"WHEN NEW.type = '{CAMPAIGN_FINISHED}' "
                    "BEGIN SELECT stall(); END"
                )
            run = live.service.submit(tiny_campaign(), wait=False)
            events = list(follow_campaign(live.url, run.id))
            assert events[-1]["event"] == CAMPAIGN_FINISHED
            _expect_exact_stream(events, live.service.store.event_log, run.id)
        finally:
            live.close()


# ------------------------------------------------------- fleet event plane
class TestFleetEvents:
    def test_remote_plane_emits_server_side(self, tmp_path):
        live = _LiveServer(
            tmp_path, local_compute=False, lease_ttl_s=30.0, batch_size=2,
        )
        worker = Worker(
            live.url, worker_id="w1", poll_interval=0.05,
            max_idle_polls=1_000_000,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            run = live.service.submit(tiny_campaign(), wait=True, timeout=300)
            assert run.status == "done"
            events = live.service.store.event_log.after(run.id, 0, 10_000)
            types = {e.type for e in events}
            assert {"worker.registered", "lease.granted", "job.leased",
                    "lease.done"} <= types
            completions = [e for e in events if e.type == JOB_COMPLETED]
            assert sorted(e.data["key"] for e in completions) == sorted(
                job.key for job in run.jobs
            )
            assert {e.data["plane"] for e in completions} == {"fleet"}
            for event in completions:
                assert event.data["rows"] == live.service.store.get_result(
                    event.data["key"]
                )
            liveness = {
                row["worker"]: row for row in live.service.worker_liveness()
            }
            assert "w1" in liveness and "alive" in liveness["w1"]
        finally:
            live.close()
            thread.join(timeout=5)
            worker.close()


# ------------------------------------------------------------- HTTP
class TestTelemetryAPI:
    def _get(self, live, path):
        with urllib.request.urlopen(live.url + path, timeout=30) as reply:
            return reply.headers, reply.read()

    def test_campaign_detail_reports_states_and_workers(self, live):
        run = live.service.submit(tiny_campaign(), wait=True)
        _, body = self._get(live, f"/campaigns/{run.id}")
        progress = json.loads(body)
        assert progress["states"]["completed"] == run.total
        assert isinstance(progress["workers"], list)

    def test_metrics_endpoint_both_formats(self, live):
        live.service.submit(tiny_campaign(), wait=True)
        headers, body = self._get(live, "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_jobs_completed_total" in body
        _, body = self._get(live, "/metrics?format=json")
        assert "repro_queue_depth" in json.loads(body)

    def test_partial_table_reports_completeness(self, put_result, tmp_path):
        """A campaign's table, partial or whole, and its completeness read
        from the store alone: ``render_stored_campaign`` (``results <id>``)
        and ``stored_progress`` (``GET /campaigns/<id>``, ``status <id>``)."""
        with Service(store_path=tmp_path / "a.sqlite", max_workers=1) as service:
            run = service.submit(tiny_campaign(), wait=True)
            done = stored_progress(service.store, run.id)
            assert done["stored"] == done["total"] == run.total
            assert done["remaining"] == 0
            assert render_stored_campaign(service.store, run.id) == service.render(run)
            full_store = service.store
            spec_json = json.dumps(tiny_campaign().to_dict(), sort_keys=True)
            keys = [job.key for job in run.jobs]

            partial_store = ResultStore(tmp_path / "b.sqlite")
            campaign_id = partial_store.create_campaign(
                spec_json, "partial", keys
            )
            first = run.jobs[0]
            rows = full_store.get_result(first.key)
            put_result(
                partial_store, first.key, first.job_id, first.experiment,
                first.workload, rows,
            )
            partial = stored_progress(partial_store, campaign_id)
            assert partial["stored"] == partial["states"]["completed"] == 1
            assert partial["total"] == run.total
            assert partial["remaining"] == run.total - 1
            table = render_stored_campaign(partial_store, campaign_id)
            assert table == tiny_campaign().render(rows)
            assert first.workload in table
            assert stored_progress(partial_store, 999) is None
            with pytest.raises(KeyError):
                render_stored_campaign(partial_store, 999)

    def test_stored_progress_counts_quarantined_keys(self, tmp_path):
        """After a restart, the store-only view reports a key that ran out of
        attempts as quarantined, as the live view did, not as queued."""
        from repro.service import Campaign

        campaign = Campaign(
            name="poisoned", experiment="repro.experiments.fig09_svb",
            workloads=("db2",), configs=(("2k", 32), ("bogus", "not-an-int")),
            trace_sizes=(1000,),
        )
        path = tmp_path / "s.sqlite"
        with Service(store_path=path, max_workers=1, max_attempts=1) as service:
            run = service.submit(campaign, wait=True)
            live = run.progress()["states"]
        assert run.status == "failed"
        store = ResultStore(path)
        stored = stored_progress(store, run.id)
        assert {k: v for k, v in stored["states"].items() if v} == {
            k: v for k, v in live.items() if v
        } == {"completed": 1, "quarantined": 1}
        assert store.stats()["quarantined"] == 1


# ----------------------------------------------------------- chaos overlap
class TestEventsUnderChaos:
    def test_dropped_worker_post_still_one_completion_per_job(self, tmp_path):
        """A dropped results post (recovered by lease expiry + recompute)
        must not double-publish completions for the recomputed jobs."""
        faults.install(FaultPlan([
            Fault(site="worker.post_results", action="drop", after=1)
        ]))
        live = _LiveServer(
            tmp_path, local_compute=False, lease_ttl_s=1.0, batch_size=1,
        )
        worker = Worker(
            live.url, worker_id="w1", poll_interval=0.05,
            max_idle_polls=1_000_000,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            run = live.service.submit(tiny_campaign(), wait=True, timeout=300)
            assert run.status == "done"
            events = live.service.store.event_log.after(run.id, 0, 10_000)
            completions = [e for e in events if e.type == JOB_COMPLETED]
            keys = [e.data["key"] for e in completions]
            assert sorted(keys) == sorted(job.key for job in run.jobs)
            assert any(e.type == "lease.expired" for e in events)
        finally:
            live.close()
            thread.join(timeout=5)
            worker.close()


# ----------------------------------------------------------------- metrics
class TestMetricsRegistry:
    def test_counter_labels_and_sums(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        counter.inc(plane="local", workload="db2")
        counter.inc(2, plane="fleet", workload="db2")
        counter.inc(plane="fleet", workload="em3d")
        assert counter.sum_where() == 4
        assert counter.sum_where(plane="fleet") == 3
        assert counter.sum_where(workload="db2") == 3
        assert counter.items() == [
            ({"plane": "fleet", "workload": "db2"}, 2.0),
            ({"plane": "fleet", "workload": "em3d"}, 1.0),
            ({"plane": "local", "workload": "db2"}, 1.0),
        ]
        assert counter.sum_where(plane="none") == 0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "seconds", "latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.render_text()
        assert 'seconds_bucket{le="0.1"} 1' in text
        assert 'seconds_bucket{le="1"} 2' in text
        assert 'seconds_bucket{le="10"} 3' in text
        assert 'seconds_bucket{le="+Inf"} 4' in text
        assert "seconds_count 4" in text

    def test_collect_hooks_run_at_render_time(self):
        registry = MetricsRegistry()
        registry.add_collect_hook(
            lambda reg: reg.gauge("live_gauge", "hooked").set(42)
        )
        assert registry.render_json()["live_gauge"]["values"][""] == 42
