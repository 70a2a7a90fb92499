"""Tests for the simulation-as-a-service subsystem (``repro.service``).

Covers the persistent store (round-trip, idempotence), campaign specs
(deterministic compilation, JSON normalization), the async scheduler
(idempotent resubmission, batching determinism, crash-resume with zero
recompute), the HTTP front-end over a loopback server, bit-identity of the
fig12/fig14 preset tables against the experiment modules' direct CLI
output, and the shared warm-up constant.
"""

import inspect
import json
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.common.config import DEFAULT_WARMUP_FRACTION, TSEConfig
from repro.experiments.runner import format_table
from repro.service import Campaign, ResultStore, Service
from repro.service.presets import campaign as preset_campaign
from repro.service.presets import preset_names
from repro.service.service import render_stored_campaign
from repro.service.spec import Job

#: Small but non-trivial trace size (streams actually form).
ACCESSES = 5_000


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store.sqlite")


def tiny_campaign(**overrides):
    defaults = dict(workloads=("db2",), target_accesses=ACCESSES)
    defaults.update(overrides)
    return preset_campaign("fig09", **defaults)


class TestResultStore:
    def test_round_trip(self, put_result, store):
        rows = [{"workload": "db2", "coverage": 0.375, "svb": "2k"}]
        put_result(store, "key-1", "job-1", "exp", "db2", rows)
        assert store.get_result("key-1") == rows
        assert store.get_result("missing") is None
        assert store.present_keys(["key-1", "missing"]) == {"key-1"}

    def test_put_is_idempotent_first_write_wins(self, put_result, store):
        put_result(store, "key-1", "job-1", "exp", "db2", [{"coverage": 0.1}])
        put_result(store, "key-1", "job-1", "exp", "db2", [{"coverage": 0.9}])
        assert store.get_result("key-1") == [{"coverage": 0.1}]
        assert store.stats()["results"] == 1

    def test_floats_round_trip_exactly(self, put_result, store):
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        put_result(store, "key-f", "job-f", "exp", "db2", [{"x": value}])
        assert store.get_result("key-f")[0]["x"] == value

    def test_campaign_rows_preserve_job_order(self, put_result, store):
        keys = ["key-b", "key-a", "key-c"]
        campaign_id = store.create_campaign("{}", "test", keys)
        put_result(store, "key-a", "ja", "exp", "db2", [{"row": "a"}])
        put_result(store, "key-b", "jb", "exp", "db2", [{"row": "b"}])
        rows = store.campaign_rows(campaign_id)
        assert rows == [[{"row": "b"}], [{"row": "a"}], None]

    def test_clear_routes_gc(self, put_result, store):
        put_result(store, "key-1", "job-1", "exp", "db2", [{}])
        store.create_campaign("{}", "test", ["key-1"])
        counts = store.clear()
        assert counts["results"] == 1 and counts["campaigns"] == 1
        assert store.stats()["results"] == 0

    def test_stats_bytes_count_the_wal(self, put_result, store):
        """The store keeps its connections open, so recent pages sit in the
        WAL until a checkpoint: the reported size counts both files."""
        rows = [{"workload": "db2", "coverage": 0.375, "svb": "2k"}] * 50
        for i in range(12):
            put_result(store, f"key-{i}", f"job-{i}", "exp", "db2", rows)
        wal = store.path.parent / (store.path.name + "-wal")
        assert wal.stat().st_size > 0
        assert store.stats()["bytes"] == store.path.stat().st_size + wal.stat().st_size


def _backdate(store, keys, days=30.0):
    """Rewrite ``created`` for the given result keys ``days`` into the past."""
    import time as _time

    cutoff = _time.time() - days * 86400.0
    with store._connect() as conn:
        for key in keys:
            conn.execute("UPDATE results SET created = ? WHERE key = ?",
                         (cutoff, key))


class TestStoreGC:
    def test_gc_evicts_only_stale_rows(self, put_result, store):
        put_result(store, "old", "j-old", "exp", "db2", [{"row": "old"}])
        put_result(store, "new", "j-new", "exp", "db2", [{"row": "new"}])
        store.create_campaign("{}", "camp", ["old", "new"])
        _backdate(store, ["old"])
        counts = store.gc(keep_days=7)
        assert counts == {"results": 1, "events": 0}
        assert store.get_result("old") is None
        assert store.get_result("new") == [{"row": "new"}]
        # Campaign membership is never evicted: the table can still be
        # reassembled, with the evicted point simply pending again.
        assert store.stats()["campaigns"] == 1
        assert store.campaign_rows(1) == [None, [{"row": "new"}]]

    def test_gc_negative_days_rejected(self, store):
        with pytest.raises(ValueError):
            store.gc(keep_days=-1)

    def test_resubmission_recomputes_exactly_the_evicted_points(self, tmp_path):
        """ISSUE acceptance: after an age GC, resubmitting the same campaign
        recomputes the evicted points and only those, and the rendered table
        is unchanged."""
        camp = tiny_campaign()
        store_path = tmp_path / "s.sqlite"
        with Service(store_path=store_path, max_workers=1) as service:
            first = service.submit(camp, wait=True)
            table = service.render(first)
            assert first.computed == first.total
        store = ResultStore(store_path)
        keys = [job.key for job in camp.jobs()]
        evicted = keys[::2]
        _backdate(store, evicted)
        counts = store.gc(keep_days=7)
        assert counts["results"] == len(evicted)
        with Service(store_path=store_path, max_workers=1) as service:
            second = service.submit(camp, wait=True)
            assert second.computed == len(evicted)
            assert second.cached == second.total - len(evicted)
            assert service.render(second) == table

    def test_cache_cli_gc_flag(self, put_result, tmp_path, capsys):
        from repro.experiments.cache import main as cache_main

        store = ResultStore(tmp_path / "s.sqlite")
        put_result(store, "old", "j-old", "exp", "db2", [{}])
        put_result(store, "new", "j-new", "exp", "db2", [{}])
        _backdate(store, ["old"])
        assert cache_main(["--gc", "--keep-days", "7",
                           "--store", str(store.path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gc"]["evicted"] == {"results": 1, "events": 0}
        assert store.stats()["results"] == 1

    def test_cache_cli_gc_requires_keep_days(self, tmp_path):
        from repro.experiments.cache import main as cache_main

        with pytest.raises(SystemExit):
            cache_main(["--gc", "--store", str(tmp_path / "s.sqlite")])


class TestCampaignSpec:
    def test_jobs_follow_run_parallel_order(self):
        camp = Campaign(
            name="t", experiment="repro.experiments.fig08_lookahead",
            workloads=("db2", "em3d"), configs=(2, 4),
            trace_sizes=(ACCESSES,),
        )
        grid = [(job.workload, job.config) for job in camp.jobs()]
        assert grid == [("db2", 2), ("db2", 4), ("em3d", 2), ("em3d", 4)]

    def test_json_round_trip_preserves_keys(self):
        camp = Campaign(
            name="t", experiment="repro.experiments.fig09_svb",
            workloads=("db2",),
            configs=(("2k", 32), ("inf", 1 << 20)),  # tuple cells
            trace_sizes=(ACCESSES,),
            shared=(("lookahead", 8),),
        )
        reloaded = Campaign.from_dict(json.loads(json.dumps(camp.to_dict())))
        assert [job.key for job in reloaded.jobs()] == [job.key for job in camp.jobs()]

    def test_tse_config_cells_round_trip(self):
        camp = Campaign(
            name="t", experiment="repro.experiments.fig08_lookahead",
            workloads=("db2",),
            configs=(TSEConfig.paper_default(lookahead=4),),
            trace_sizes=(ACCESSES,),
        )
        reloaded = Campaign.from_dict(json.loads(json.dumps(camp.to_dict())))
        assert reloaded.configs == camp.configs
        assert [job.key for job in reloaded.jobs()] == [job.key for job in camp.jobs()]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            Campaign.from_dict({"name": "x", "experiment": "e",
                                "workloads": ["db2"], "bogus": 1})

    def test_list_valued_inputs_normalized_at_construction(self):
        """Lists (natural Python input) and their JSON round trip compile
        byte-identical job keys — crash-resume dedupe depends on this."""
        camp = Campaign(
            name="t", experiment="repro.experiments.fig06_correlation",
            workloads=["db2"],  # type: ignore[arg-type]
            trace_sizes=[ACCESSES],  # type: ignore[arg-type]
            shared=(("distances", [1, 2, 4]),),  # list value inside shared
        )
        reloaded = Campaign.from_dict(json.loads(json.dumps(camp.to_dict())))
        assert [job.key for job in reloaded.jobs()] == [job.key for job in camp.jobs()]
        assert camp.jobs()[0].shared == (("distances", (1, 2, 4)),)

    def test_workload_names_validated_at_construction(self):
        with pytest.raises(ValueError, match="unknown workloads"):
            Campaign(name="t", experiment="repro.experiments.fig09_svb",
                     workloads=("dbb2",))
        with pytest.raises(ValueError, match="unknown workloads"):
            # A bare string explodes into characters — must not compile.
            Campaign(name="t", experiment="repro.experiments.fig09_svb",
                     workloads="db2")  # type: ignore[arg-type]

    def test_non_repro_experiment_rejected(self):
        from repro.service.spec import spec_for

        with pytest.raises(ValueError):
            spec_for("os")  # arbitrary module import must be refused
        with pytest.raises(ValueError):
            spec_for("repro.experiments.nonexistent")

    def test_every_job_field_is_in_its_key(self):
        """A job carries no runtime-only field: changing any one field
        changes the key, so jobs that may compute different rows never
        share a store row."""
        import dataclasses

        job = Job("repro.experiments.fig09_svb", "db2", None, ACCESSES, 42)
        changed = {
            "experiment": "repro.experiments.fig10_cmob",
            "workload": "em3d",
            "config": TSEConfig.paper_default(lookahead=4),
            "target_accesses": ACCESSES + 1,
            "seed": 43,
            "num_nodes": 4,
            "shared": (("lookahead", 8),),
        }
        assert set(changed) == {field.name for field in dataclasses.fields(Job)}
        for name, value in changed.items():
            assert dataclasses.replace(job, **{name: value}).key != job.key, name

    def test_preset_defaults_compile(self):
        for name in preset_names():
            camp = preset_campaign(name, target_accesses=ACCESSES)
            jobs = camp.jobs()
            assert jobs and all(isinstance(job, Job) for job in jobs)


class TestSchedulerAndService:
    def test_idempotent_resubmit_recomputes_zero(self, tmp_path):
        """ISSUE acceptance: the second submission computes nothing."""
        camp = tiny_campaign()
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            first = service.submit(camp, wait=True)
            assert first.status == "done"
            assert first.computed == first.total and first.cached == 0
            second = service.submit(camp, wait=True)
            assert second.cached == second.total and second.computed == 0
            assert service.render(second) == service.render(first)

    def test_resubmit_survives_restart(self, tmp_path):
        camp = tiny_campaign()
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            table = service.render(service.submit(camp, wait=True))
        # Fresh process-equivalent: new Service over the same store file.
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(camp, wait=True)
            assert run.computed == 0 and run.cached == run.total
            assert service.render(run) == table

    def test_batching_deterministic_vs_serial(self, tmp_path):
        """Any batch size produces the same stored rows as one-job batches."""
        camp = preset_campaign(
            "fig08", workloads=("db2", "em3d"), target_accesses=ACCESSES
        )
        tables = []
        for index, batch_size in enumerate((1, 3, 64)):
            with Service(
                store_path=tmp_path / f"b{index}.sqlite",
                max_workers=1, batch_size=batch_size,
            ) as service:
                tables.append(service.render(service.submit(camp, wait=True)))
        assert tables[0] == tables[1] == tables[2]

    def test_crash_resume_skips_stored_points(self, put_result, tmp_path, monkeypatch):
        """Kill mid-campaign, restart, and only the missing points run."""
        camp = tiny_campaign()
        jobs = camp.jobs()
        store_path = tmp_path / "s.sqlite"
        store = ResultStore(store_path)
        # Simulate the crashed process: campaign recorded as running, the
        # first two points stored, the rest never finished.
        done, missing = jobs[:2], jobs[2:]
        for job in done:
            put_result(store, job.key, job.job_id, job.experiment,
                       job.workload, job.execute())
        store.create_campaign(
            json.dumps(camp.to_dict()), camp.name, [job.key for job in jobs]
        )

        executed = []
        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch

        def counting_execute(batch):
            executed.extend(job.key for job in batch)
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", counting_execute)
        with Service(store_path=store_path, max_workers=1) as service:
            resumed = service.resume()
            assert len(resumed) == 1
            run = service.wait(resumed[0])
            assert run.status == "done"
            assert run.cached == len(done) and run.computed == len(missing)
        assert sorted(executed) == sorted(job.key for job in missing)
        # ... and the resumed campaign's table is complete.
        assert store.campaign_rows(resumed[0].id).count(None) == 0

    def test_failed_job_does_not_poison_its_batch(self, tmp_path):
        """One bad point: batchmates' results are stored, only it fails."""
        camp = Campaign(
            name="mixed", experiment="repro.experiments.fig09_svb",
            workloads=("db2",),
            configs=(("2k", 32), "bogus-config"),  # second cell cannot unpack
            trace_sizes=(ACCESSES,), shared=(("lookahead", 8),),
        )
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(camp, wait=True)
            assert run.status == "failed"
            assert run.computed == 1 and run.failed == 1
            assert run.error  # the unpack failure is reported
            # Resubmission retries only the failed point; the good one is cached.
            rerun = service.submit(camp, wait=True)
            assert rerun.cached == 1 and rerun.computed == 0 and rerun.failed == 1

    def test_second_restart_does_not_resubmit_superseded(self, tmp_path):
        """Older builds resumed a crashed campaign as a new one and marked
        the old record ``superseded``; now the record itself finishes, and
        a second restart finds nothing to resubmit."""
        camp = tiny_campaign()
        store_path = tmp_path / "s.sqlite"
        store = ResultStore(store_path)
        campaign_id = store.create_campaign(
            json.dumps(camp.to_dict()), camp.name, [job.key for job in camp.jobs()]
        )
        with Service(store_path=store_path, max_workers=1) as service:
            resumed = service.resume()
            assert [run.id for run in resumed] == [campaign_id]
            service.wait(resumed[0])
        # The crashed record itself finished: no second record appeared.
        assert store.campaign(campaign_id)["status"] == "done"
        assert [record["id"] for record in store.campaigns()] == [campaign_id]
        # A later restart finds only terminal records: nothing to resume.
        with Service(store_path=store_path, max_workers=1) as service:
            assert service.resume() == []

    def test_resume_skips_a_legacy_superseded_record(self, tmp_path):
        """Older builds resubmitted a crashed campaign under a new id and
        marked the old record ``superseded``: such a record stays readable
        and is never resumed."""
        from repro.service.service import render_stored_campaign

        camp = tiny_campaign()
        store = ResultStore(tmp_path / "s.sqlite")
        legacy = store.create_campaign(
            json.dumps(camp.to_dict()), camp.name, [job.key for job in camp.jobs()]
        )
        store.set_campaign_status(legacy, "superseded")
        assert store.unfinished_campaigns() == []
        with Service(store_path=store.path, max_workers=1) as service:
            assert service.resume() == []
            progress = service.progress(legacy)
        assert progress["status"] == "superseded"
        assert progress["stored"] == 0 and progress["total"] == len(camp.jobs())
        assert render_stored_campaign(store, legacy) == camp.render([])
        assert store.stats()["results"] == 0

    def test_close_mid_campaign_stays_resumable(self, tmp_path, monkeypatch):
        """Shutting down mid-flight must NOT mark the campaign done: the
        aborted batch leaves it non-terminal, and a later resume finishes it."""
        import time

        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch

        def slow_execute(batch):
            time.sleep(3)
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", slow_execute)
        camp = tiny_campaign()
        store_path = tmp_path / "s.sqlite"
        service = Service(store_path=store_path, max_workers=1)
        run = service.submit(camp, wait=False)
        service.close()  # aborts the in-flight batch

        store = ResultStore(store_path)
        assert store.campaign(run.id)["status"] == "running"  # non-terminal
        monkeypatch.setattr(scheduler_module, "execute_batch", real_execute)
        with Service(store_path=store_path, max_workers=1) as fresh:
            resumed = fresh.resume()
            assert [again.id for again in resumed] == [run.id]
            done = fresh.wait(resumed[0])
            assert done.status == "done"
        assert store.campaign(run.id)["status"] == "done"
        assert store.campaign_rows(run.id).count(None) == 0

    def test_scheduler_death_between_compute_and_store_write(self, tmp_path):
        """Kill the scheduler after a batch's jobs computed but *before*
        their result writes: the already-stored jobs survive, and resume
        recomputes exactly the incomplete ones — never a stored one."""
        import time as time_module

        from repro.service import faults
        from repro.service.faults import Fault, FaultPlan

        camp = tiny_campaign()
        jobs = camp.jobs()
        store_path = tmp_path / "s.sqlite"
        # The third store write is where the "process dies": results 1-2
        # are durable, job 3 computed but unwritten, job 4 still queued.
        faults.install(FaultPlan([
            Fault(site="scheduler.store_result", action="kill", after=3),
        ]))
        try:
            service = Service(store_path=store_path, max_workers=1,
                              batch_size=1)
            run = service.submit(camp, wait=False)
            store = ResultStore(store_path)
            deadline = time_module.time() + 60
            while len(store.present_keys([j.key for j in jobs])) < 2:
                assert time_module.time() < deadline, "first jobs never stored"
                time_module.sleep(0.05)
            time_module.sleep(0.5)  # let the injected death land
            service.close()
        finally:
            faults.install(None)
        assert store.campaign(run.id)["status"] == "running"  # non-terminal
        stored = store.present_keys([j.key for j in jobs])
        assert len(stored) == 2

        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch
        executed = []

        def counting_execute(batch):
            executed.extend(job.key for job in batch)
            return real_execute(batch)

        try:
            scheduler_module.execute_batch = counting_execute
            with Service(store_path=store_path, max_workers=1) as fresh:
                resumed = fresh.resume()
                assert len(resumed) == 1
                assert fresh.wait(resumed[0]).status == "done"
        finally:
            scheduler_module.execute_batch = real_execute
        # Exactly the incomplete jobs ran again; zero stored jobs recomputed.
        assert sorted(executed) == sorted(
            job.key for job in jobs if job.key not in stored
        )
        assert store.campaign_rows(resumed[0].id).count(None) == 0

    def test_results_rows_include_finalize_columns(self, tmp_path):
        """fig10's machine-readable rows carry fraction_of_peak, matching
        the rendered table's columns."""
        camp = preset_campaign(
            "fig10", workloads=("db2",), target_accesses=ACCESSES,
        )
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(camp, wait=True)
            rows = service.results(run)
        assert rows and all("fraction_of_peak" in row for row in rows)
        assert any(row["fraction_of_peak"] == 1.0 for row in rows)

    def test_num_nodes_other_than_16_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="t", experiment="repro.experiments.fig09_svb",
                     workloads=("db2",), num_nodes=8)

    def test_concurrent_overlapping_campaigns_compute_once(self, tmp_path):
        """Two campaigns sharing every point, submitted while the first is
        still queued: the second waits on the in-flight jobs instead of
        recomputing them."""
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            store = ResultStore(tmp_path / "s.sqlite")
            scheduler = Scheduler(store, max_workers=1, batch_size=1)
            first = await scheduler.submit(tiny_campaign())
            # Workers have not run yet: every job of the twin is in-flight.
            second = await scheduler.submit(tiny_campaign())
            await scheduler.wait(first)
            await scheduler.wait(second)
            await scheduler.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == second.status == "done"
        assert first.computed == first.total
        assert second.computed == 0 and second.cached == second.total
        assert ResultStore(tmp_path / "s.sqlite").stats()["results"] == first.total


class TestPersistentKeys:
    """Key texts pinned as literals: stored rows, the result cache and the
    perfbench digests all assume these never move.  Both keep the
    ``("mode", "exact")`` tail they have carried since the fast plane was
    keyed, and a campaign that asks for any other plane is refused."""

    @pytest.fixture()
    def post(self, tmp_path):
        """``post(body) -> (status, reply)`` against a loopback API."""
        from repro.service.api import make_server

        service = Service(store_path=tmp_path / "api.sqlite", max_workers=1)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def post(body):
            request = urllib.request.Request(
                f"http://{host}:{port}/campaigns", data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=120) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as refused:
                return refused.code, json.loads(refused.read())

        post.service = service
        yield post
        server.shutdown()
        server.server_close()
        service.close()

    def test_job_key_text_and_id(self):
        jobs = preset_campaign("fig09", workloads=("db2",), target_accesses=1000,
                               seed=1234).jobs()
        job = next(job for job in jobs if job.config[0] == "512B")
        assert job.key == (
            "('repro.experiments.fig09_svb', 'db2', ('512B', 8), 1000, 1234, 16, "
            "(('lookahead', 8),), ('warmup', 0.3), ('mode', 'exact'))"
        )
        assert job.job_id == "afc343e7fc03bec5"

    @pytest.mark.parametrize("traffic, tail", [
        (False, "0.3, False, None, ('mode', 'exact'))"),
        # Fig. 11's cache key also carries the interconnect's ``repr``.
        (True, "0.3, True, InterconnectConfig(width=4, height=4, "
               "hop_latency_ns=25.0, bisection_bandwidth_gbps=128.0, "
               "header_bytes=16), ('mode', 'exact'))"),
    ])
    def test_determinism_key_text(self, traffic, tail):
        from repro.common.config import SystemConfig
        from repro.experiments.cache import determinism_key, key_text

        interconnect = SystemConfig.isca2005().interconnect if traffic else None
        key = determinism_key("db2", 1000, 42, 16, None, 0.3, traffic, interconnect)
        assert key_text(key) == (
            "('db2', 1000, 42, 16, TSEConfig(cmob_capacity=262144, "
            "cmob_entry_bytes=6, cmob_pointers_per_block=2, compared_streams=2, "
            "stream_lookahead=8, svb_entries=32, stream_queues=8, "
            "refill_threshold=8, queue_depth=16), " + tail
        )

    def test_stored_exact_mode_still_loads(self):
        """Records written by earlier builds carry ``"mode": "exact"``."""
        spec = tiny_campaign().to_dict()
        assert "mode" not in spec
        legacy = Campaign.from_dict({**spec, "mode": "exact"})
        assert [job.key for job in legacy.jobs()] == [
            job.key for job in Campaign.from_dict(spec).jobs()
        ]

    @pytest.mark.parametrize("form", ["campaign", "preset"])
    def test_exact_mode_body_is_accepted(self, post, form):
        """Clients of earlier builds send ``"mode": "exact"`` (the CLI's
        ``submit --url`` always did)."""
        camp = tiny_campaign()
        body = ({"campaign": {**camp.to_dict(), "mode": "exact"}} if form == "campaign"
                else {"preset": "fig09", "workloads": ["db2"],
                      "target_accesses": ACCESSES, "mode": "exact"})
        status, reply = post({**body, "wait": True})
        assert status == 200 and reply["status"] == "done"
        assert post.service.store.campaign_keys(reply["campaign_id"]) == [
            job.key for job in camp.jobs()
        ]

    def test_fast_mode_is_refused(self, post):
        spec = {**tiny_campaign().to_dict(), "mode": "fast"}
        with pytest.raises(ValueError, match="exact plane only"):
            Campaign.from_dict(spec)
        for body in ({"campaign": spec},
                     {"preset": "fig09", "workloads": ["db2"], "mode": "fast"}):
            status, reply = post(body)
            assert status == 400 and "exact plane only" in reply["error"]
        assert post.service.store.stats()["campaigns"] == 0

    def test_resume_fails_a_stored_fast_campaign(self, tmp_path):
        """Resume runs a record an earlier build stored with ``"mode":
        "exact"`` and marks one stored with ``"fast"`` failed."""
        camp = tiny_campaign()
        keys = [job.key for job in camp.jobs()]
        fast_keys = [key.replace("('mode', 'exact')",
                                 "('mode', 'fast', ('fast_refill_factor', 4))")
                     for key in keys]
        store = ResultStore(tmp_path / "s.sqlite")
        fast_id = store.create_campaign(
            json.dumps({**camp.to_dict(), "mode": "fast"}), camp.name, fast_keys
        )
        exact_id = store.create_campaign(
            json.dumps({**camp.to_dict(), "mode": "exact"}), camp.name, keys
        )
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            resumed = service.resume()
            assert [run.id for run in resumed] == [exact_id]
            assert service.wait(resumed[0]).status == "done"
        assert store.campaign(fast_id)["status"] == "failed"


class TestCancelAndResume:
    def test_cancelled_run_hands_in_flight_jobs_to_waiters(self, tmp_path):
        """Cancelling the owning run must not strand a concurrent waiter."""
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            store = ResultStore(tmp_path / "s.sqlite")
            scheduler = Scheduler(store, max_workers=1, batch_size=1)
            owner = await scheduler.submit(tiny_campaign())
            waiter = await scheduler.submit(tiny_campaign())
            scheduler.cancel(owner)
            await scheduler.wait(owner)
            await scheduler.wait(waiter)
            await scheduler.close()
            return owner, waiter

        owner, waiter = asyncio.run(scenario())
        assert owner.status == "cancelled"
        assert waiter.status == "done"
        assert waiter.computed == waiter.total  # it took over the jobs
        assert ResultStore(tmp_path / "s.sqlite").stats()["results"] == waiter.total

    def test_cancelled_run_hands_a_failed_leased_job_to_its_waiter(self, tmp_path):
        """A job of a cancelled run that fails under a live lease is not
        quarantined on its first attempt: the waiting run retries it."""
        import asyncio

        from repro.service.scheduler import Scheduler, execute_batch

        async def scenario():
            store = ResultStore(tmp_path / "s.sqlite")
            scheduler = Scheduler(store, max_workers=1, local_compute=False,
                                  retry_base=0.0)
            owner = await scheduler.submit(tiny_campaign())
            waiter = await scheduler.submit(tiny_campaign())
            lease = scheduler.lease_next("w1")
            scheduler.cancel(owner)
            scheduler.complete_lease(lease.id, [
                {"key": job.key, "error": "RuntimeError: flaky"} for job in lease.jobs
            ])
            while (retry := scheduler.lease_next("w2")) is not None:
                scheduler.complete_lease(retry.id, execute_batch(retry.jobs))
            await scheduler.wait(owner)
            await scheduler.wait(waiter)
            await scheduler.close()
            return owner, waiter

        owner, waiter = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert owner.status == "cancelled"
        assert waiter.status == "done" and waiter.computed == waiter.total

    def test_resume_isolates_unloadable_campaign_specs(self, tmp_path):
        """A corrupt stored spec, or one that no longer compiles to the
        record's keys, is marked failed and does not block the resume of
        later campaigns."""
        camp = tiny_campaign()
        store_path = tmp_path / "s.sqlite"
        store = ResultStore(store_path)
        bad_id = store.create_campaign("{not json", "broken", ["key-x"])
        stale_id = store.create_campaign(
            json.dumps(camp.to_dict()), camp.name, ["key-from-an-older-build"]
        )
        good_id = store.create_campaign(
            json.dumps(camp.to_dict()), camp.name, [job.key for job in camp.jobs()]
        )
        with Service(store_path=store_path, max_workers=1) as service:
            resumed = service.resume()
            assert [run.id for run in resumed] == [good_id]
            assert service.wait(resumed[0]).status == "done"
        assert store.campaign(bad_id)["status"] == "failed"
        assert store.campaign(stale_id)["status"] == "failed"
        assert store.campaign(good_id)["status"] == "done"

    def test_cancel_drops_queued_jobs(self, tmp_path):
        """Cancelling before the loop runs the workers drops every batch."""
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            store = ResultStore(tmp_path / "s.sqlite")
            scheduler = Scheduler(store, max_workers=1, batch_size=1)
            run = await scheduler.submit(tiny_campaign())
            scheduler.cancel(run)  # workers have not been scheduled yet
            await scheduler.wait(run)
            await scheduler.close()
            return run

        run = asyncio.run(scenario())
        assert run.status == "cancelled"
        assert run.computed == 0
        assert ResultStore(tmp_path / "s.sqlite").stats()["results"] == 0

    def test_dropped_jobs_read_cancelled_live_and_stored(self, tmp_path):
        """A campaign cancelled before it runs reports its four dropped
        jobs as cancelled, not queued, in the live and the stored view."""
        import asyncio

        from repro.service.scheduler import Scheduler
        from repro.service.service import stored_progress

        store = ResultStore(tmp_path / "s.sqlite")

        async def scenario():
            scheduler = Scheduler(store, max_workers=1, batch_size=1)
            run = await scheduler.submit(tiny_campaign())
            scheduler.cancel(run)
            await scheduler.wait(run)
            await scheduler.close()
            return run

        run = asyncio.run(scenario())
        assert run.status == "cancelled" and run.total == 4
        stored = stored_progress(store, run.id)
        assert stored["status"] == "cancelled"
        for states in (run.progress()["states"], stored["states"]):
            assert states.get("cancelled") == 4 and states["queued"] == 0


@pytest.fixture()
def connections(monkeypatch):
    """Counts every ``sqlite3.connect`` call (``opened``) and the
    connections so opened that nobody has closed yet (``open``)."""
    tally = {"opened": 0, "open": 0}
    lock = threading.Lock()
    real_connect = sqlite3.connect

    class Counted(sqlite3.Connection):
        closed = False

        def close(self):
            with lock:
                if not self.closed:
                    self.closed = True
                    tally["open"] -= 1
            super().close()

    def counting_connect(*args, **kwargs):
        conn = real_connect(*args, factory=Counted, **kwargs)
        with lock:
            tally["opened"] += 1
            tally["open"] += 1
        return conn

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return tally


class TestConnectionBound:
    """The store keeps its connections open across operations, so their
    count follows the operations running at once, not the operations run."""

    def test_a_campaign_opens_a_handful_of_connections(self, tmp_path, connections):
        campaign = Campaign(
            name="bound", experiment="repro.experiments.fig09_svb",
            workloads=("db2",), seeds=(1, 2, 3, 4, 5), trace_sizes=(1_000,),
        )
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1,
                     batch_size=1) as service:
            run = service.submit(campaign, wait=True)
            assert run.status == "done" and run.computed == run.total >= 20
            assert len(service.results(run)) == run.total
            leases = sum(row["leases"] for row in service.store.workers())
            assert leases == run.total  # one batch, one lease, per job
        assert connections["opened"] <= 4
        assert connections["open"] == 0

    def test_served_requests_reuse_connections(self, tmp_path, connections):
        from repro.service.api import make_server

        service = Service(store_path=tmp_path / "s.sqlite", max_workers=1)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        paths = ("/campaigns", "/results?limit=5", "/workers", "/metrics",
                 "/jobs/none", "/campaigns/1")
        try:
            for index in range(200):
                try:
                    with urllib.request.urlopen(
                        base + paths[index % len(paths)], timeout=30
                    ) as reply:
                        reply.read()
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404
            assert connections["open"] <= 4
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert connections["opened"] <= 4
        assert connections["open"] == 0


class TestHTTPSmoke:
    def test_loopback_submit_matches_run_parallel(self, tmp_path):
        """CI smoke: a tiny campaign over HTTP == the direct run_parallel path."""
        from repro.experiments import fig09_svb
        from repro.service.api import make_server

        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            server = make_server(service, port=0)
            port = server.server_address[1]
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{port}"
            try:
                with urllib.request.urlopen(base + "/healthz", timeout=30) as reply:
                    assert json.loads(reply.read())["ok"] is True

                request = urllib.request.Request(
                    base + "/campaigns",
                    data=json.dumps({
                        "preset": "fig09", "workloads": ["db2"],
                        "target_accesses": ACCESSES, "wait": True,
                    }).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=600) as reply:
                    payload = json.loads(reply.read())
                assert payload["status"] == "done"

                direct = fig09_svb.run(workloads=("db2",), target_accesses=ACCESSES)
                assert payload["rows"] == json.loads(json.dumps(direct))
                assert payload["table"] == (
                    fig09_svb.SPEC.title + "\n"
                    + format_table(direct, fig09_svb.SPEC.columns)
                )

                job_id = json.loads(urllib.request.urlopen(
                    base + "/results?workload=db2&limit=1", timeout=30
                ).read())["results"][0]["job_id"]
                job = json.loads(urllib.request.urlopen(
                    base + f"/jobs/{job_id}", timeout=30
                ).read())
                assert job["workload"] == "db2" and job["rows"]

                with urllib.request.urlopen(base + "/campaigns", timeout=30) as reply:
                    campaigns = json.loads(reply.read())["campaigns"]
                assert campaigns and campaigns[-1]["status"] == "done"

                # A bad campaign spec must come back as a 400, not a dropped
                # socket (and must not import arbitrary modules).
                for experiment in ("os", "repro.experiments.nonexistent"):
                    bad = urllib.request.Request(
                        base + "/campaigns",
                        data=json.dumps({"campaign": {
                            "name": "x", "experiment": experiment,
                            "workloads": ["db2"],
                        }}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        urllib.request.urlopen(bad, timeout=30)
                    assert excinfo.value.code == 400
            finally:
                server.shutdown()
                server.server_close()


class TestCliVerbs:
    """The CLI's local ``status <id>`` and ``results <id>`` print the views
    the service serves: the store view of ``GET /campaigns/<id>``, and
    ``Campaign.render`` over the stored rows, partial or whole."""

    CORE = ("campaign_id", "name", "status", "total", "stored", "remaining", "states")

    @pytest.fixture(scope="class")
    def views(self, put_result, tmp_path_factory):
        """One store holding a finished campaign and a second one with one
        of its points stored."""
        store_path = tmp_path_factory.mktemp("cli-verbs") / "s.sqlite"
        whole = tiny_campaign()
        with Service(store_path=store_path, max_workers=1) as service:
            run = service.submit(whole, wait=True)
            assert run.status == "done"
            table = service.render(run)
        part = tiny_campaign(seed=7)
        store = ResultStore(store_path)
        jobs = part.jobs()
        part_id = store.create_campaign(
            json.dumps(part.to_dict()), part.name, [job.key for job in jobs]
        )
        first = jobs[0]
        rows = first.execute()
        put_result(store, first.key, first.job_id, first.experiment, first.workload, rows)
        return {
            "store_path": store_path, "whole_id": run.id, "whole_table": table,
            "part_id": part_id, "part_table": part.render(rows),
            "part_total": len(jobs), "first": first,
        }

    @staticmethod
    def _cli(views, capsys, *args):
        from repro.service.cli import main as cli_main

        code = cli_main(["--store", str(views["store_path"]), *map(str, args)])
        return code, capsys.readouterr().out

    def test_status_matches_the_served_campaign_view(self, views, capsys):
        from repro.service.api import make_server

        with Service(store_path=views["store_path"], max_workers=1) as fresh:
            server = make_server(fresh, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                for campaign_id in (views["whole_id"], views["part_id"]):
                    with urllib.request.urlopen(
                        f"{base}/campaigns/{campaign_id}", timeout=30
                    ) as reply:
                        served = json.loads(reply.read())
                    code, out = self._cli(views, capsys, "status", campaign_id)
                    assert code == 0
                    printed = json.loads(out)
                    assert {key: printed[key] for key in self.CORE} == {
                        key: served[key] for key in self.CORE
                    }
            finally:
                server.shutdown()
                server.server_close()
        _, out = self._cli(views, capsys, "status", views["part_id"])
        partial = json.loads(out)
        assert partial["stored"] == 1 and partial["total"] == views["part_total"]
        assert partial["remaining"] == views["part_total"] - 1

    def test_results_renders_the_stored_rows(self, views, capsys):
        assert self._cli(views, capsys, "results", views["whole_id"]) == (
            0, views["whole_table"] + "\n"
        )
        code, out = self._cli(views, capsys, "results", views["part_id"])
        assert code == 0 and out == views["part_table"] + "\n"
        assert views["first"].workload in out

    def test_unknown_campaign_exits_1(self, views, capsys):
        assert self._cli(views, capsys, "results", 999)[0] == 1
        assert self._cli(views, capsys, "status", 999)[0] == 1


class TestPresetBitIdentity:
    """ISSUE acceptance: fig12/fig14 through the service == direct CLI."""

    WORKLOADS = ("db2", "em3d")

    @pytest.mark.parametrize("module_name,preset", [
        ("fig12_comparison", "fig12"),
        ("fig14_performance", "fig14"),
    ])
    def test_preset_table_matches_module_cli(self, tmp_path, module_name, preset):
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        # What the module CLI prints (main() == title + table of run()).
        rows = module.run(workloads=self.WORKLOADS, target_accesses=ACCESSES)
        direct = module.SPEC.title + "\n" + format_table(rows, module.SPEC.columns)

        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(
                preset_campaign(preset, workloads=self.WORKLOADS,
                                target_accesses=ACCESSES),
                wait=True,
            )
            assert run.status == "done"
            assert service.render(run) == direct
            # Re-render from the persisted store (JSON round trip included).
            assert render_stored_campaign(service.store, run.id) == direct


class TestWarmupConstant:
    """ISSUE bugfix: a single shared warm-up constant, no drifting literals."""

    def test_single_source_of_truth(self):
        from repro.common import config
        from repro.experiments import cache, runner

        assert runner.DEFAULT_WARMUP_FRACTION is config.DEFAULT_WARMUP_FRACTION
        assert cache.DEFAULT_WARMUP_FRACTION is config.DEFAULT_WARMUP_FRACTION

    def test_entry_point_defaults_follow_the_constant(self):
        from repro.experiments.cache import cached_tse_run
        from repro.prefetch.harness import evaluate_prefetcher
        from repro.tse.simulator import run_tse_on_trace

        for function in (run_tse_on_trace, evaluate_prefetcher, cached_tse_run):
            default = inspect.signature(function).parameters["warmup_fraction"].default
            assert default == DEFAULT_WARMUP_FRACTION, function.__name__


class TestCacheCLI:
    def test_stats_and_clear(self, put_result, tmp_path, capsys):
        from repro.experiments.cache import main as cache_main

        store = ResultStore(tmp_path / "s.sqlite")
        put_result(store, "key-1", "job-1", "exp", "db2", [{}])

        assert cache_main(["--stats", "--store", str(store.path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["store"]["results"] == 1
        assert "traces" in stats and "snapshots" not in stats

        assert cache_main(["--clear", "--store", str(store.path)]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["cleared"]["store"]["results"] == 1
        assert store.stats()["results"] == 0

    def test_missing_store_reported_not_created(self, tmp_path, capsys):
        from repro.experiments.cache import main as cache_main

        path = tmp_path / "absent.sqlite"
        assert cache_main(["--stats", "--store", str(path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "no store" in stats["store"]
        assert not path.exists()

    def test_module_entry_point_runs_one_copy(self, tmp_path):
        """``python -m repro.experiments.cache`` must not execute a second
        copy of the module (runpy warns when the package already imported
        it, and the CLI would read that copy's in-process cache)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro.experiments.cache as cache_module

        src = Path(cache_module.__file__).parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.experiments.cache", "--stats", "--store",
             str(tmp_path / "s.sqlite")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestWarmStatePreset:
    def test_preset_stores_its_rows(self, tmp_path):
        """The warm_state preset completes and stores its row under the
        campaign's job key."""
        camp = preset_campaign(
            "warm_state", workloads=("em3d",), target_accesses=2_000,
            shared=(("warm_accesses", 2_000),),
        )
        store_path = tmp_path / "s.sqlite"
        with Service(store_path=store_path, max_workers=1) as service:
            run = service.submit(camp, wait=True)
            assert run.status == "done" and run.computed == 1
        store = ResultStore(store_path)
        keys = [job.key for job in camp.jobs()]
        assert store.present_keys(keys) == set(keys)
