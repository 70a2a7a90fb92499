"""Chaos suite: the fault-tolerant execution plane under injected failures.

Every scenario drives a *real* deployment shape — a remote-only
:class:`~repro.service.service.Service` behind the loopback HTTP API with
lease-protocol :class:`~repro.service.worker.Worker`\\ s on threads — under
a seeded :class:`~repro.service.faults.FaultPlan`, and asserts exact
recovery invariants (not statistical ones):

* a worker killed mid-batch costs one lease TTL, never a result;
* a dropped results post is recovered by the expiry sweeper;
* an early-expired lease plus the worker's late post double-writes
  nothing (results are idempotent) and recomputes nothing on resubmit;
* a poison job quarantines after its retry budget and the campaign
  completes degraded;
* every completed job's rows are equal to a no-fault baseline run;
* a lease that expires on a job's last attempt quarantines the job, a
  late post of its rows clears the flag, and a crash-resume keeps the
  exhausted key failed without a second verdict;
* a crash-resume continues its campaign's event stream: nothing is
  announced again and each key gets exactly one verdict.

Plus unit coverage for the building blocks: FaultPlan determinism and
round-tripping, deterministic retry backoff, store lease/attempt
lifecycles, and lock-contention retry on concurrent store writers.
"""

import asyncio
import json
import sqlite3
import threading
import time

import pytest

from repro.service import faults
from repro.service.api import make_server
from repro.service.events import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_SUBMITTED,
    JOB_CACHED,
    JOB_COMPLETED,
    JOB_QUARANTINED,
    JOB_QUEUED,
    EventBus,
)
from repro.service.faults import Fault, FaultPlan, InjectedFault, WorkerKilled
from repro.service.presets import campaign as preset_campaign
from repro.service.scheduler import Scheduler, backoff_delay
from repro.service.service import Service
from repro.service.store import LEASE_DONE, LEASE_EXPIRED, ResultStore
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


def baseline_rows(tmp_path):
    """No-fault reference: every job key -> rows, from a plain local run."""
    store_path = tmp_path / "baseline.sqlite"
    with Service(store_path=store_path, max_workers=1) as service:
        run = service.submit(tiny_campaign(), wait=True)
        assert run.status == "done"
    store = ResultStore(store_path)
    return {job.key: store.get_result(job.key) for job in run.jobs}


class _Fleet:
    """Remote-only service + loopback HTTP API + N worker threads."""

    def __init__(self, tmp_path, workers=2, lease_ttl=1.0, max_attempts=3,
                 batch_size=1, start_delays=None):
        self.start_delays = start_delays or {}
        self.store_path = tmp_path / "fleet.sqlite"
        self.service = Service(
            store_path=self.store_path, max_workers=1, local_compute=False,
            lease_ttl_s=lease_ttl, max_attempts=max_attempts,
            batch_size=batch_size,
        )
        self.server = make_server(self.service, port=0)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._server_thread.start()
        self.exit_codes = {}
        self._worker_threads = []
        for index in range(workers):
            worker_id = f"w{index + 1}"
            thread = threading.Thread(
                target=self._run_worker, args=(worker_id,), daemon=True
            )
            self._worker_threads.append(thread)
            thread.start()

    def _run_worker(self, worker_id):
        # Optional staggered start: deterministically hand the first lease
        # to a specific worker even when jobs complete in microseconds.
        time.sleep(self.start_delays.get(worker_id, 0.0))
        worker = Worker(
            self.url, worker_id=worker_id, poll_interval=0.05,
            max_idle_polls=1_000_000, job_timeout_s=None,
        )
        try:
            self.exit_codes[worker_id] = worker.run()
        except WorkerKilled:
            self.exit_codes[worker_id] = 17  # crashed, posted nothing
        finally:
            worker.close()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        for thread in self._worker_threads:
            thread.join(timeout=5)


def run_fleet_campaign(tmp_path, plan=None, timeout=120, **fleet_kw):
    """One campaign through a 2-worker fleet under an optional fault plan."""
    faults.install(plan)
    fleet = _Fleet(tmp_path, **fleet_kw)
    try:
        run = fleet.service.submit(tiny_campaign(), wait=True, timeout=timeout)
        return fleet, run
    finally:
        faults.install(None)
        fleet.close()


class TestFaultPlan:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            Fault(site="x", action="explode")
        with pytest.raises(ValueError):
            Fault(site="x", action="raise", after=0)

    def test_trigger_window_is_deterministic(self):
        plan = FaultPlan([Fault(site="s", action="drop", after=2, count=2)])
        hits = [plan.fire("s") for _ in range(5)]
        assert hits == [None, "drop", "drop", None, None]
        assert [entry["hit"] for entry in plan.fired] == [2, 3]

    def test_match_filters_on_context(self):
        plan = FaultPlan([Fault(site="s", action="raise", match="w1:")])
        assert plan.fire("s", context="w2:job") is None
        with pytest.raises(InjectedFault):
            plan.fire("s", context="w1:job")

    def test_count_zero_means_forever(self):
        plan = FaultPlan([Fault(site="s", action="drop", count=0)])
        assert all(plan.fire("s") == "drop" for _ in range(10))

    def test_soft_kill_is_base_exception(self):
        plan = FaultPlan([Fault(site="s", action="kill")])
        with pytest.raises(BaseException) as err:
            plan.fire("s")
        assert isinstance(err.value, WorkerKilled)
        assert not isinstance(err.value, Exception)  # survives except Exception

    def test_round_trips_through_json(self, tmp_path):
        """A plan file, as ``work --fault-plan`` reads it."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 7, "hard": True, "faults": [
            {"site": "worker.job", "action": "kill", "after": 3, "match": "w1:"}]}))
        plan = FaultPlan.load(path)
        assert plan.faults == [Fault(site="worker.job", action="kill", after=3, match="w1:")]
        assert (plan.seed, plan.hard) == (7, True)

    def test_no_plan_is_a_noop(self):
        faults.install(None)
        assert faults.fire("anything", context="x") is None


class TestBackoff:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay("k", 1) == backoff_delay("k", 1)
        assert backoff_delay("k", 1) != backoff_delay("other", 1)

    def test_exponential_and_capped(self):
        base = 0.5
        for attempt in range(1, 8):
            delay = backoff_delay("key", attempt, base=base, cap=4.0)
            ceiling = min(4.0, base * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= ceiling
        assert backoff_delay("key", 0) == 0.0


def _lease_row(store, lease_id):
    """One ``leases`` row, read straight from the file."""
    with sqlite3.connect(store.path) as conn:
        worker, status, expires, keys = conn.execute(
            "SELECT worker, status, expires, keys_json FROM leases WHERE id = ?",
            (lease_id,),
        ).fetchone()
    conn.close()
    return {"worker": worker, "status": status, "expires": expires,
            "keys": json.loads(keys)}


class TestStoreLeases:
    def test_lease_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        lease_id = store.create_lease("w1", ["key-a", "key-b"], ttl=30.0)
        record = _lease_row(store, lease_id)
        assert record["worker"] == "w1" and record["keys"] == ["key-a", "key-b"]
        first_expiry = record["expires"]
        time.sleep(0.02)
        assert store.heartbeat_lease(lease_id, ttl=30.0) > first_expiry
        assert store.finish_lease(lease_id) is True
        assert store.finish_lease(lease_id) is False  # already terminal
        assert store.heartbeat_lease(lease_id, ttl=30.0) is None
        assert _lease_row(store, lease_id)["status"] == LEASE_DONE

    def test_expired_lease_shows_in_worker_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        done = store.create_lease("w1", ["k1"], ttl=30.0)
        store.finish_lease(done)
        dead = store.create_lease("w2", ["k2"], ttl=30.0)
        store.finish_lease(dead, status=LEASE_EXPIRED)
        stats = {row["worker"]: row for row in store.workers()}
        assert stats["w1"]["done"] == 1 and stats["w1"]["expired"] == 0
        assert stats["w2"]["expired"] == 1

    def test_attempt_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        assert store.record_attempt("k", "boom", "trace-1") == 1
        assert store.record_attempt("k", "boom again", "trace-2") == 2
        store.quarantine("k")
        record = store.attempt_record("k")
        assert record["attempts"] == 2 and record["quarantined"]
        assert record["last_error"] == "boom again"
        assert "trace-2" in record["traceback"]
        store.reset_attempts(["k"])
        assert store.attempt_record("k") is None

    def test_concurrent_writers_never_see_locked_errors(self, put_result, tmp_path):
        """Satellite: retrying immediate transactions absorb contention —
        hammering one store file from many threads leaks no
        ``sqlite3.OperationalError: database is locked``."""
        path = tmp_path / "contended.sqlite"
        ResultStore(path)  # create schema once
        errors = []

        def hammer(worker_index):
            try:
                store = ResultStore(path)
                for i in range(25):
                    put_result(
                        store, f"key-{worker_index}-{i}", f"job-{worker_index}-{i}",
                        "exp", "db2", [{"x": i}],
                    )
                    store.record_attempt(f"shared-{i % 5}", "err")
                    lease_id = store.create_lease(f"w{worker_index}", ["k"], 5.0)
                    store.finish_lease(lease_id)
            except sqlite3.OperationalError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        store = ResultStore(path)
        assert store.stats()["results"] == 8 * 25


class TestFleetChaos:
    def test_no_fault_fleet_matches_local_baseline(self, tmp_path):
        """Sanity: the lease protocol itself computes the same bits."""
        baseline = baseline_rows(tmp_path)
        fleet, run = run_fleet_campaign(tmp_path, plan=None)
        assert run.status == "done"
        assert run.computed == run.total
        store = ResultStore(fleet.store_path)
        assert {j.key: store.get_result(j.key) for j in run.jobs} == baseline

    def test_worker_killed_mid_batch_recovers(self, tmp_path):
        """Kill w1 at its first job: the lease expires and w2 finishes;
        nothing is lost and every row matches the no-fault baseline."""
        baseline = baseline_rows(tmp_path)
        plan = FaultPlan([
            Fault(site="worker.job", action="kill", match="w1:"),
        ], seed=1)
        fleet, run = run_fleet_campaign(
            tmp_path, plan=plan, lease_ttl=1.0,
            start_delays={"w2": 0.5},  # w1 is guaranteed the first lease
        )
        assert run.status == "done"
        assert fleet.exit_codes.get("w1") == 17  # it really died
        assert any(entry["action"] == "kill" for entry in plan.fired)
        store = ResultStore(fleet.store_path)
        assert {j.key: store.get_result(j.key) for j in run.jobs} == baseline
        # The dead worker's lease shows as expired in the fleet stats.
        stats = {row["worker"]: row for row in store.workers()}
        assert stats["w1"]["expired"] >= 1

    def test_dropped_results_post_recovers(self, tmp_path):
        """A lost results post costs one TTL: the sweeper requeues, the
        jobs recompute (deterministically), and nothing is lost."""
        baseline = baseline_rows(tmp_path)
        plan = FaultPlan([
            Fault(site="worker.post_results", action="drop"),
        ], seed=2)
        fleet, run = run_fleet_campaign(tmp_path, plan=plan, lease_ttl=1.0)
        assert run.status == "done"
        assert any(entry["action"] == "drop" for entry in plan.fired)
        store = ResultStore(fleet.store_path)
        assert {j.key: store.get_result(j.key) for j in run.jobs} == baseline

    def test_early_expiry_with_late_post_is_harmless(self, tmp_path):
        """Expire every lease at the sweeper while its worker still runs:
        the late posts land idempotently; a follow-up submission of the
        same campaign recomputes zero completed jobs."""
        baseline = baseline_rows(tmp_path)
        plan = FaultPlan([
            Fault(site="scheduler.sweep", action="expire", count=2),
        ], seed=3)
        fleet, run = run_fleet_campaign(tmp_path, plan=plan, lease_ttl=30.0)
        assert run.status == "done"
        store = ResultStore(fleet.store_path)
        assert {j.key: store.get_result(j.key) for j in run.jobs} == baseline
        # Resubmission finds every point stored: zero recompute.
        with Service(store_path=fleet.store_path, max_workers=1) as local:
            rerun = local.submit(tiny_campaign(), wait=True)
            assert rerun.status == "done"
            assert rerun.cached == rerun.total and rerun.computed == 0

    def test_poison_job_quarantined_campaign_degrades(self, tmp_path):
        """A job that fails on every worker quarantines after its retry
        budget; its batchmates complete and the campaign ends 'failed'
        (degraded) instead of hanging."""
        poison_key = tiny_campaign().jobs()[0].key
        plan = FaultPlan([
            Fault(site="worker.job", action="raise", match=poison_key,
                  count=0),
        ], seed=4)
        fleet, run = run_fleet_campaign(
            tmp_path, plan=plan, max_attempts=2, timeout=120,
        )
        assert run.status == "failed"
        assert run.quarantined == 1 and run.failed == 1
        assert run.computed == run.total - 1
        store = ResultStore(fleet.store_path)
        record = store.attempt_record(poison_key)
        assert record["quarantined"] and record["attempts"] >= 2
        assert "InjectedFault" in record["last_error"]
        assert store.get_result(poison_key) is None


class TestLocalRetry:
    def test_transient_failure_retries_to_success(self, tmp_path, monkeypatch):
        """A job that fails twice then succeeds completes within the default
        retry budget — the campaign ends 'done', not 'failed'."""
        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch
        failures = {"left": 2}

        def flaky_execute(batch):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient infrastructure wobble")
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", flaky_execute)
        with Service(store_path=tmp_path / "s.sqlite", max_workers=1) as service:
            run = service.submit(tiny_campaign(), wait=True, timeout=120)
            assert run.status == "done"
            assert run.computed == run.total and run.failed == 0

    def test_local_lease_outliving_its_ttl_is_not_expired(
        self, tmp_path, monkeypatch,
    ):
        """A local slot's lease is bounded by the job timeout, not the TTL:
        a batch that runs four TTLs is neither requeued by the sweeper nor
        charged an attempt."""
        import repro.service.scheduler as scheduler_module

        real_execute = scheduler_module.execute_batch

        def slow_execute(batch):
            time.sleep(1.0)
            return real_execute(batch)

        monkeypatch.setattr(scheduler_module, "execute_batch", slow_execute)
        with Service(
            store_path=tmp_path / "s.sqlite", max_workers=1, lease_ttl_s=0.25,
        ) as service:
            run = service.submit(tiny_campaign(), wait=True, timeout=60)
            assert run.status == "done" and run.computed == run.total
            for job in run.jobs:
                assert service.store.attempt_record(job.key) is None
            types = {e.type for e in service.store.event_log.after(run.id, 0, 10_000)}
            assert "lease.expired" not in types and "job.retried" not in types
            stats = {row["worker"]: row for row in service.store.workers()}
            assert stats["local-1"]["done"] >= 1 and stats["local-1"]["expired"] == 0

    def test_job_timeout_counts_as_attempt(self, tmp_path, monkeypatch):
        """A stuck batch trips the per-job timeout and, with a budget of 1
        attempt, quarantines instead of hanging the campaign."""
        import repro.service.scheduler as scheduler_module

        def stuck_execute(batch):
            time.sleep(2)  # >> the 0.2s/job budget, bounded for test exit
            raise AssertionError("unreachable")

        monkeypatch.setattr(scheduler_module, "execute_batch", stuck_execute)
        with Service(
            store_path=tmp_path / "s.sqlite", max_workers=1,
            job_timeout_s=0.2, max_attempts=1,
        ) as service:
            run = service.submit(tiny_campaign(), wait=True, timeout=60)
            assert run.status == "failed"
            assert run.failed == run.total
            assert "JobTimeout" in run.error


class TestSteppedScheduler:
    """A one-attempt scheduler on an injected clock, driven step by step
    (no local slots; the sweeper runs only when called), so a lease the
    sweeper expires spends the job's only attempt."""

    TTL = 10.0

    def _scheduler(self, store, clock):
        return Scheduler(
            store, max_workers=1, local_compute=False, max_attempts=1,
            retry_base=0.0, lease_ttl_s=self.TTL, sweep_interval=1e9,
            events=EventBus(store.event_log), clock=lambda: clock["now"],
        )

    @staticmethod
    def _outcomes(jobs):
        return [{
            "key": job.key, "job_id": job.job_id, "workload": job.workload,
            "experiment": job.experiment, "rows": job.execute(),
            "error": None, "duration_s": 0.0,
        } for job in jobs]

    def _expire(self, scheduler, clock):
        clock["now"] += self.TTL + 1
        scheduler.sweep()

    def test_late_row_clears_the_quarantine_flag(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        clock = {"now": 1_000.0}

        async def scenario():
            scheduler = self._scheduler(store, clock)
            run = await scheduler.submit(tiny_campaign(target_accesses=1_000))
            lease = scheduler.lease_next("w1")
            self._expire(scheduler, clock)
            assert run.status == "failed" and run.quarantined == run.total
            assert store.stats()["quarantined"] == run.total
            reply = scheduler.complete_lease(lease.id, self._outcomes(lease.jobs))
            await scheduler.close()
            return run, reply

        run, reply = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert reply["duplicate"] is True and reply["stored"] == run.total
        assert store.present_keys([job.key for job in run.jobs]) == {
            job.key for job in run.jobs
        }
        # "Quarantined" means no row and out of attempts: the rows cleared it.
        assert store.stats()["quarantined"] == 0
        assert store.quarantined_keys(run.id) == {}

    def test_resume_keeps_an_exhausted_key_failed(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        clock = {"now": 1_000.0}
        camp = tiny_campaign(target_accesses=1_000)

        async def crash_with_one_key_spent():
            scheduler = self._scheduler(store, clock)
            run = await scheduler.submit(camp)
            lease = scheduler.lease_next("w1", 1)
            self._expire(scheduler, clock)
            assert run.status == "running" and run.quarantined == 1
            await scheduler.close()
            return run.id, lease.jobs[0].key

        async def resume_to_the_end():
            scheduler = self._scheduler(store, clock)
            [run] = await scheduler.resume()
            reopened = (run.quarantined, run.states[spent])
            lease = scheduler.lease_next("w2")
            scheduler.complete_lease(lease.id, self._outcomes(lease.jobs))
            await scheduler.close()
            return run, reopened, {job.key for job in lease.jobs}

        campaign_id, spent = asyncio.run(
            asyncio.wait_for(crash_with_one_key_spent(), 120)
        )
        run, reopened, ran = asyncio.run(asyncio.wait_for(resume_to_the_end(), 120))
        # A resume continues its submission: same id, same retry budget.
        assert run.id == campaign_id
        assert reopened == (1, "quarantined")
        assert spent not in ran and len(ran) == run.total - 1
        assert run.status == "failed" and run.failed == 1
        assert store.campaign(campaign_id)["status"] == "failed"
        assert store.get_result(spent) is None
        verdicts = [
            event for event in store.event_log.after(campaign_id, 0, 10_000)
            if event.type == JOB_QUARANTINED
        ]
        assert [event.data["key"] for event in verdicts] == [spent]

    def test_resume_continues_the_event_stream(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        clock = {"now": 1_000.0}
        camp = tiny_campaign(target_accesses=1_000)

        async def crash_mid_campaign():
            scheduler = self._scheduler(store, clock)
            run = await scheduler.submit(camp)
            first = scheduler.lease_next("w1", 1)
            scheduler.complete_lease(first.id, self._outcomes(first.jobs))
            scheduler.lease_next("w2", 1)  # live when the process dies
            await scheduler.close()
            return run.id

        async def resume_to_the_end():
            scheduler = self._scheduler(store, clock)
            [run] = await scheduler.resume()
            lease = scheduler.lease_next("w3")
            scheduler.complete_lease(lease.id, self._outcomes(lease.jobs))
            await scheduler.close()
            return run

        campaign_id = asyncio.run(asyncio.wait_for(crash_mid_campaign(), 120))
        run = asyncio.run(asyncio.wait_for(resume_to_the_end(), 120))
        assert run.id == campaign_id and run.status == "done"
        assert run.cached == 1 and run.computed == run.total - 1
        stream = store.event_log.after(campaign_id, 0, 10_000)
        types = [event.type for event in stream]
        keys = sorted(job.key for job in run.jobs)
        assert types.count(CAMPAIGN_SUBMITTED) == 1
        assert sorted(
            event.data["key"] for event in stream if event.type == JOB_QUEUED
        ) == keys
        assert sorted(
            event.data["key"] for event in stream
            if event.type in (JOB_COMPLETED, JOB_CACHED, JOB_QUARANTINED)
        ) == keys
        assert JOB_CACHED not in types
        assert types.count(CAMPAIGN_FINISHED) == 1 and types[-1] == CAMPAIGN_FINISHED
        assert store.campaign(campaign_id)["status"] == "done"
