"""Stateful model of the campaign scheduler (``repro.service.scheduler``).

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.service.store.ResultStore` and one
:class:`~repro.service.scheduler.Scheduler` in process, on tiny fig09
traces, through interleavings no hand-written scenario covers.  Its rules:

* submit one of three small campaigns (two of them share keys, one has a
  higher priority), starting with one, under a retry budget of one or two
  attempts per job;
* grant the next batch, whole or split to one job, to one of three named
  remote workers or to a local slot;
* complete a remote lease whole, partially, with a failed job, or twice;
  complete an expired or orphaned lease late; run a local slot's batch;
* heartbeat a remote lease; advance the injected clock and run one sweeper
  step;
* cancel a campaign; crash (close) and ``resume()`` on a new scheduler over
  the same store;
* run everything to completion with healthy holders (liveness).

After every step the invariants check the service's guarantees:

* every stored row is byte-identical to a no-fault run's, and every result
  a holder posted (late and duplicate posts included) is stored;
* within one campaign each key gets at most one verdict (``job.completed``,
  ``job.cached`` or ``job.quarantined``), so no key is both quarantined and
  completed, and every completion event carries the reference rows;
* no key is both stored and flagged quarantined in the store;
* a finished ("done") campaign holds every key, and resubmitting it
  computes zero jobs;
* a campaign's terminal event follows all of its job events;
* a live run's accounting adds up, and a local lease is never expired by
  the sweeper;
* a cancelled run whose batches have left the queue reports no ``queued``
  key, except one it waits on another run to compute.

After ``run_to_completion`` (crashes and resumes included) every campaign
id in the store is terminal, and one the model did not cancel is ``done``
exactly when it holds all of its keys — unless it failed on a key that
was out of attempts when it finished, whose row landed later.

Retries back off by zero seconds and the sweeper loop never wakes on its
own, so every step is synchronous and the machine is deterministic.
``SCHEDULER_MODEL_EXAMPLES`` raises the example budget (CI's service job
runs a larger one than tier-1).
"""

import asyncio
import json
import os
import shutil
import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.service.events import (
    CAMPAIGN_FINISHED,
    JOB_CACHED,
    JOB_COMPLETED,
    JOB_QUARANTINED,
    EventBus,
)
from repro.service.presets import campaign as preset_campaign
from repro.service.scheduler import Scheduler
from repro.service.spec import Campaign
from repro.service.store import ResultStore

ACCESSES = 1_000
TTL = 10.0
WORKERS = ("w1", "w2", "w3")
LOCAL_SLOT = "local-1"
HOLDERS = WORKERS + (LOCAL_SLOT,)
EXAMPLES = int(os.environ.get("SCHEDULER_MODEL_EXAMPLES", "100"))


def _campaigns():
    base = preset_campaign("fig09", workloads=("db2",), target_accesses=ACCESSES, seed=1)
    overlap = Campaign(
        name="overlap", experiment=base.experiment, workloads=("db2",),
        seeds=(1, 2), trace_sizes=(ACCESSES,),
    )
    urgent = preset_campaign(
        "fig09", workloads=("em3d",), target_accesses=ACCESSES, seed=1, priority=1,
    )
    return base, overlap, urgent


CAMPAIGNS = _campaigns()
_REFERENCE = {}


def reference():
    """Job key -> the payload text a no-fault run stores for it."""
    if not _REFERENCE:
        for camp in CAMPAIGNS:
            for job in camp.jobs():
                _REFERENCE[job.key] = json.dumps(job.execute())
    return _REFERENCE


def posted_outcomes(jobs):
    """What a healthy remote worker posts for ``jobs``."""
    return [{
        "key": job.key, "job_id": job.job_id, "workload": job.workload,
        "experiment": job.experiment, "rows": json.loads(reference()[job.key]),
        "error": None, "duration_s": 0.0,
    } for job in jobs]


def _pick(items, index):
    items = sorted(items)
    return items[index % len(items)]


class SchedulerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="scheduler-model-")
        self.store = ResultStore(os.path.join(self.tmp, "store.sqlite"))
        self.loop = asyncio.new_event_loop()
        self.now = 1_000.0
        self.max_attempts = 2
        self.scheduler = self._scheduler()
        #: Runs of the live scheduler.
        self.runs = []
        #: Lease id -> jobs, for leases the live scheduler no longer holds
        #: (expired, or orphaned by a crash): their posts arrive late.
        self.late = {}
        #: Keys whose rows a holder posted or a local slot computed.
        self.posted = set()
        #: Local leases granted and not yet run.
        self.local = set()
        #: Ids of finished runs already resubmitted.
        self.resubmitted = set()
        #: Ids of the campaigns the model cancelled.
        self.cancelled = set()

    def _scheduler(self):
        return Scheduler(
            self.store, max_workers=1, batch_size=2, local_compute=False,
            max_attempts=self.max_attempts, retry_base=0.0, lease_ttl_s=TTL,
            sweep_interval=1e9,
            events=EventBus(self.store.event_log), clock=lambda: self.now,
        )

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def _call(self, method, *args):
        async def call():
            return method(*args)

        return self._run(call())

    def _flush(self):
        """Let the zero-delay retry timers requeue their jobs."""
        for _ in range(100):
            if not self.scheduler._retry_timers:
                return
            self._run(asyncio.sleep(0))
        raise AssertionError("retry timers never fired")

    def _remote(self):
        return [i for i, lease in self.scheduler.leases.items() if not lease.local]

    def _post(self, lease_id, outcomes, late):
        reply = self._call(self.scheduler.complete_lease, lease_id, outcomes)
        assert reply["duplicate"] is late
        self.posted.update(o["key"] for o in outcomes if o.get("rows") is not None)
        self._flush()

    def teardown(self):
        try:
            self._run(self.scheduler.close())
        finally:
            self.loop.close()
            self.store.close()
            shutil.rmtree(self.tmp, ignore_errors=True)

    # ----------------------------------------------------------------- rules
    @initialize(camp=st.sampled_from(CAMPAIGNS), attempts=st.sampled_from([2, 1]))
    def first_submission(self, camp, attempts):
        self.max_attempts = self.scheduler.max_attempts = attempts
        self.submit(camp)

    @rule(camp=st.sampled_from(CAMPAIGNS))
    def submit(self, camp):
        self.runs.append(self._run(self.scheduler.submit(camp)))

    @rule(holder=st.sampled_from(HOLDERS), max_jobs=st.sampled_from([None, 1]))
    def grant(self, holder, max_jobs):
        local = holder == LOCAL_SLOT
        lease = self._call(self.scheduler.lease_next, holder, max_jobs, local)
        if lease is not None and local:
            self.local.add(lease.id)

    @precondition(lambda self: self._remote())
    @rule(pick=st.integers(0, 7))
    def complete_whole(self, pick):
        lease_id = _pick(self._remote(), pick)
        self._post(lease_id, posted_outcomes(self.scheduler.leases[lease_id].jobs), False)

    @precondition(lambda self: self._remote())
    @rule(pick=st.integers(0, 7), how=st.sampled_from(["partial", "failed", "twice"]))
    def complete_faulty(self, pick, how):
        lease_id = _pick(self._remote(), pick)
        outcomes = posted_outcomes(self.scheduler.leases[lease_id].jobs)
        if how == "partial":
            outcomes = outcomes[:-1]
        elif how == "failed":
            outcomes[0] = {**outcomes[0], "rows": None, "error": "RuntimeError: boom"}
        self._post(lease_id, outcomes, late=False)
        if how == "twice":
            self._post(lease_id, outcomes, late=True)

    @precondition(lambda self: self.late)
    @rule(pick=st.integers(0, 7))
    def complete_late(self, pick):
        lease_id = _pick(self.late, pick)
        self._post(lease_id, posted_outcomes(self.late[lease_id]), late=True)

    @precondition(lambda self: self.local)
    @rule(pick=st.integers(0, 7))
    def run_local(self, pick):
        lease_id = _pick(self.local, pick)
        self.local.discard(lease_id)
        lease = self.scheduler.leases[lease_id]
        self._run(self.scheduler._run_local(lease))
        self.posted.update(job.key for job in lease.jobs)
        self._flush()

    @precondition(lambda self: self._remote())
    @rule(pick=st.integers(0, 7))
    def heartbeat(self, pick):
        lease_id = _pick(self._remote(), pick)
        assert self._call(self.scheduler.heartbeat, lease_id) is not None
        assert self.scheduler.leases[lease_id].expires == self.now + TTL

    @rule(seconds=st.sampled_from([0.0, TTL / 2, TTL + 1]))
    def advance_clock_and_sweep(self, seconds):
        self.now += seconds
        before = dict(self.scheduler.leases)
        self._call(self.scheduler.sweep)
        self._flush()
        for lease_id, lease in before.items():
            if lease_id not in self.scheduler.leases:
                self.late[lease_id] = lease.jobs

    @precondition(lambda self: self.runs)
    @rule(pick=st.integers(0, 7))
    def cancel(self, pick):
        run = self.runs[pick % len(self.runs)]
        self._call(self.scheduler.cancel, run)
        self.cancelled.add(run.id)

    @rule()
    def crash_and_resume(self):
        for lease_id, lease in self.scheduler.leases.items():
            self.late[lease_id] = lease.jobs
        self._run(self.scheduler.close())
        self.local.clear()
        self.scheduler = self._scheduler()
        self.runs = self._run(self.scheduler.resume())

    @rule()
    def run_to_completion(self):
        """Liveness: healthy holders finish every campaign."""
        scheduler = self.scheduler
        for _ in range(100):
            for lease_id in sorted(self.local):
                self.run_local(0)
            for lease_id in self._remote():
                self._post(lease_id, posted_outcomes(scheduler.leases[lease_id].jobs), False)
            lease = self._call(scheduler.lease_next, WORKERS[0])
            if lease is not None:
                self._post(lease.id, posted_outcomes(lease.jobs), False)
            elif not scheduler.leases and not scheduler._retry_timers:
                break
        assert all(run.done.is_set() for run in self.runs)
        assert self.store.unfinished_campaigns() == []
        self._every_campaign_ends_terminal()

    def _every_campaign_ends_terminal(self):
        finished = {}
        with self.store._connect() as conn:
            for row in conn.execute(
                "SELECT campaign_id, data_json FROM events WHERE type = ?",
                (CAMPAIGN_FINISHED,),
            ):
                finished[row["campaign_id"]] = json.loads(row["data_json"])
        for record in self.store.campaigns():
            status = record["status"]
            assert status in ("done", "failed", "cancelled"), record
            if status == "cancelled":
                assert record["id"] in self.cancelled, record
                continue
            holds_every_key = record["stored"] == record["total"]
            if status == "done":
                assert holds_every_key, record
            elif holds_every_key:
                # Failed, then its missing row landed (a late post, or a
                # later submission's fresh retry budget): the verdict stands.
                assert finished[record["id"]]["failed"] >= 1, record

    # ------------------------------------------------------------ invariants
    @invariant()
    def stored_rows_are_the_reference_rows(self):
        with self.store._connect() as conn:
            rows = conn.execute("SELECT key, rows_json FROM results").fetchall()
        for row in rows:
            assert row["rows_json"] == reference()[row["key"]], row["key"]
        stored = {row["key"] for row in rows}
        assert self.posted <= stored, "a posted result was lost"
        for run in self.runs:
            for key, state in run.states.items():
                assert state != "completed" or key in stored, key
            if run.status == "done":
                assert {job.key for job in run.jobs} <= stored

    @invariant()
    def no_key_is_stored_and_quarantined(self):
        with self.store._connect() as conn:
            both = conn.execute(
                "SELECT a.key FROM job_attempts a JOIN results r ON r.key = a.key "
                "WHERE a.quarantined = 1"
            ).fetchall()
        assert not both, [row["key"] for row in both]

    @invariant()
    def finished_campaigns_resubmit_with_zero_computed_jobs(self):
        for run in self.runs:
            if run.status == "done" and run.id not in self.resubmitted:
                self.resubmitted.add(run.id)
                again = self._run(self.scheduler.submit(run.campaign))
                assert again.status == "done"
                assert again.computed == 0 and again.cached == again.total

    @invariant()
    def runs_add_up(self):
        for run in self.runs:
            settled = run.cached + run.computed + run.failed
            assert run.remaining >= 0
            assert run.done.is_set() == (run.remaining == 0)
            if run.cancelled:
                assert settled + run.remaining <= run.total
            else:
                assert settled + run.remaining == run.total

    @invariant()
    def a_cancelled_run_drops_its_queued_keys(self):
        scheduler = self.scheduler
        for run in self.runs:
            if not run.cancelled or any(
                entry[2] is run for entry in scheduler._queue._queue
            ):
                continue
            waited = {
                key for key, waiters in scheduler._waiters.items()
                if any(waiter is run for waiter in waiters)
            }
            queued = {key for key, state in run.states.items() if state == "queued"}
            assert queued <= waited, queued - waited

    @invariant()
    def one_verdict_per_key_and_the_terminal_event_last(self):
        with self.store._connect() as conn:
            rows = conn.execute(
                "SELECT campaign_id, type, data_json FROM events "
                "ORDER BY campaign_id, seq"
            ).fetchall()
        streams = {}
        for row in rows:
            streams.setdefault(row["campaign_id"], []).append(row)
        for events in streams.values():
            verdicts = {}
            for row in events:
                if row["type"] not in (JOB_COMPLETED, JOB_CACHED, JOB_QUARANTINED):
                    continue
                data = json.loads(row["data_json"])
                key = data["key"]
                assert key not in verdicts, (key, verdicts.get(key), row["type"])
                verdicts[key] = row["type"]
                if row["type"] == JOB_COMPLETED:
                    assert data["rows"] == json.loads(reference()[key]), key
            finished = [i for i, row in enumerate(events) if row["type"] == CAMPAIGN_FINISHED]
            assert finished in ([], [len(events) - 1]), [row["type"] for row in events]

    @invariant()
    def local_leases_are_never_expired(self):
        assert self.local <= set(self.scheduler.leases)


TestSchedulerModel = SchedulerModel.TestCase
TestSchedulerModel.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, derandomize=True,
    deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
