"""Async campaign scheduler: local pool plus a fault-tolerant worker fleet.

The scheduler is an ``asyncio`` front-end: campaigns are compiled to job
lists, jobs already present in the persistent store are skipped outright
(resubmission is near-free), and the remaining jobs are **batched by trace
identity** — every job that replays the same ``(workload, target_accesses,
seed, num_nodes)`` trace is grouped into one batch so a worker generates
(or inherits) that packed trace once and sweeps every configuration over
it, exactly like ``run_parallel``'s preloading.

Batches flow through one priority queue (campaign priority first,
submission order second) to **two competing execution planes**:

* the *local pool* — worker tasks driving ``ProcessPoolExecutor`` slots
  (inline thread fallback at ``max_workers <= 1``), exactly as in PR 4;
* the *fleet* — remote workers that lease queued batches over the HTTP API
  (:meth:`Scheduler.lease_next`), heartbeat to stay alive, and post
  per-job outcomes back (:meth:`Scheduler.complete_lease`).  Leases carry
  TTLs persisted in the store; the expiry sweeper requeues a dead worker's
  jobs, so a crashed worker costs one TTL, never a stranded campaign.

Graceful degradation falls out of the shared queue: with no workers
registered the local pool drains everything (``local_compute=False`` —
``serve --remote-only`` — parks batches until a worker leases them), and
the store-backed read API keeps answering while compute is down.

Failure handling is per job, with persistent accounting:

* every failed attempt (raised error, batch-level pool death, per-job
  timeout, lease expiry) bumps the job's row in the store's
  ``job_attempts`` table;
* a failed job is requeued after a deterministic exponential backoff with
  jitter (:func:`backoff_delay`, seeded via :mod:`repro.common.rng` from
  the job key — schedules are reproducible under test);
* after ``job_retries`` attempts the job is **quarantined**: marked
  ``failed`` with its captured traceback, and the campaign completes
  degraded instead of hanging.  A fresh submission resets the attempt
  budget, so quarantine is per-submission, never a permanent ban.

Results are written to the store the moment they exist, so a crash loses
at most in-flight work: on restart, :meth:`Scheduler.resume` re-submits
every campaign that never reached a terminal status, and only the missing
points run (locked in by ``tests/test_service.py``).
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import job_retries, job_timeout, lease_ttl
from repro.common.rng import backoff_delay
from repro.experiments.runner import default_parallel_workers
from repro.service import events as events_module
from repro.service import faults
from repro.service.events import EventBus
from repro.service.metrics import MetricsRegistry
from repro.service.spec import Campaign, Job
from repro.service.store import LEASE_EXPIRED, ResultStore

#: One job outcome:
#: (key, job_id, workload, rows, error, traceback, duration_s).
Outcome = Tuple[
    str, str, str, Optional[List[Dict[str, object]]], Optional[str],
    Optional[str], float,
]

#: Per-job states the breakdown in ``GET /campaigns/<id>`` reports.
JOB_STATES: Tuple[str, ...] = (
    "queued", "leased", "running", "completed", "retrying", "quarantined",
)


def execute_batch(jobs: Sequence[Job]) -> List[Outcome]:
    """Run one batch of jobs (in a pool process, a thread, or a worker).

    Jobs in a batch share a trace identity, so the first job generates the
    packed trace and the rest sweep their configurations over the cached
    copy (``trace_for``'s lru_cache / the shared result cache).

    Failures are isolated per job: each outcome carries either the job's
    rows or an error string plus the captured traceback, so one bad point
    never discards its batchmates' completed work.  Each outcome also
    times its job (telemetry only — the duration feeds the latency
    histogram and completion events, never a result row).
    """
    outcomes: List[Outcome] = []
    for job in jobs:
        started = time.time()
        try:
            rows = job.execute()
            outcomes.append((
                job.key, job.job_id, job.workload, rows, None, None,
                time.time() - started,
            ))
        except Exception as exc:
            outcomes.append((
                job.key, job.job_id, job.workload, None,
                f"{type(exc).__name__}: {exc}", traceback_module.format_exc(),
                time.time() - started,
            ))
    return outcomes


# backoff_delay lives in repro.common.rng (shared with the HTTP transport's
# reconnect plane since PR 10) and is re-exported here via the import above,
# so `from repro.service.scheduler import backoff_delay` keeps working.


class JobTimeout(Exception):
    """A batch exceeded its per-job execution-time budget."""


@dataclass
class CampaignRun:
    """Live progress of one submitted campaign."""

    id: int
    campaign: Campaign
    jobs: List[Job]
    cached: int = 0
    computed: int = 0
    failed: int = 0
    quarantined: int = 0
    remaining: int = 0
    cancelled: bool = False
    error: Optional[str] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: key -> one of :data:`JOB_STATES` (telemetry only; accounting above
    #: stays authoritative for completion).
    states: Dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.jobs)

    def state_counts(self) -> Dict[str, int]:
        """Zero-filled per-state job breakdown for progress payloads."""
        counts = {state: 0 for state in JOB_STATES}
        for state in self.states.values():
            counts[state] = counts.get(state, 0) + 1
        return counts

    @property
    def status(self) -> str:
        if not self.done.is_set():
            return "running"
        if self.cancelled:
            return "cancelled"
        return "failed" if self.failed else "done"

    def progress(self) -> Dict[str, Any]:
        """Progress JSON.  ``campaign_id``/``name``/``status``/``total``/
        ``stored``/``remaining`` form the stable core every front-end can
        rely on (a store-only view after a restart reports the same keys);
        the cached/computed/failed/quarantined split and the per-state
        ``states`` breakdown exist only while the run is live in this
        process."""
        return {
            "campaign_id": self.id,
            "name": self.campaign.name,
            "experiment": self.campaign.experiment,
            "status": self.status,
            "total": self.total,
            "stored": self.cached + self.computed,
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "remaining": self.remaining,
            "states": self.state_counts(),
            "error": self.error,
        }


@dataclass
class Lease:
    """One live remote lease: the scheduler-side view of a leased batch."""

    id: int
    worker: str
    run: CampaignRun
    jobs: List[Job]
    expires: float


def _batch_jobs(jobs: Sequence[Job], batch_size: int) -> List[List[Job]]:
    """Group jobs by trace identity, preserving job order within groups."""
    groups: Dict[Tuple, List[Job]] = {}
    for job in jobs:
        identity = (job.workload, job.target_accesses, job.seed, job.num_nodes)
        groups.setdefault(identity, []).append(job)
    batches: List[List[Job]] = []
    for group in groups.values():
        for start in range(0, len(group), batch_size):
            batches.append(group[start:start + batch_size])
    return batches


class Scheduler:
    """Priority-queued async scheduler with store-backed memoization,
    per-job retry/quarantine, and a leased remote-worker plane."""

    def __init__(
        self,
        store: ResultStore,
        max_workers: Optional[int] = None,
        batch_size: int = 64,
        local_compute: bool = True,
        job_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        retry_base: float = 0.5,
        lease_ttl_s: Optional[float] = None,
        sweep_interval: Optional[float] = None,
        events: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        #: Telemetry plane: a disabled bus when none is injected (direct
        #: Scheduler construction in tests); Service wires the real one.
        self.events = events if events is not None else EventBus(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_completed = self.metrics.counter(
            "repro_jobs_completed_total",
            "jobs completed, by execution plane and workload",
        )
        self._m_retried = self.metrics.counter(
            "repro_jobs_retried_total", "failed attempts scheduled for retry"
        )
        self._m_quarantined = self.metrics.counter(
            "repro_jobs_quarantined_total", "jobs quarantined as poison"
        )
        self._m_leases_granted = self.metrics.counter(
            "repro_leases_granted_total", "fleet leases granted, by worker"
        )
        self._m_leases_done = self.metrics.counter(
            "repro_leases_completed_total", "fleet leases settled by a post"
        )
        self._m_leases_expired = self.metrics.counter(
            "repro_leases_expired_total", "fleet leases expired by the sweeper"
        )
        self._m_heartbeats = self.metrics.counter(
            "repro_lease_heartbeats_total", "lease heartbeats received"
        )
        self._m_job_seconds = self.metrics.histogram(
            "repro_job_seconds", "per-job execution latency, by plane"
        )
        self._m_accesses = self.metrics.counter(
            "repro_accesses_total",
            "trace accesses replayed by completed jobs, by workload",
        )
        #: Worker ids already announced via a worker.registered event.
        self._seen_workers: set = set()
        self.max_workers = (
            max_workers if max_workers is not None else default_parallel_workers()
        )
        self.batch_size = max(1, batch_size)
        #: ``False`` = fleet-only: batches wait for remote leases
        #: (``serve --remote-only``); reads and submissions still work.
        self.local_compute = local_compute
        self.job_timeout_s = (
            job_timeout_s if job_timeout_s is not None else job_timeout()
        )
        self.max_attempts = (
            max_attempts if max_attempts is not None else job_retries()
        )
        self.retry_base = retry_base
        self.lease_ttl_s = lease_ttl_s if lease_ttl_s is not None else lease_ttl()
        self.sweep_interval = (
            sweep_interval
            if sweep_interval is not None
            else max(0.25, min(self.lease_ttl_s / 4.0, 5.0))
        )
        self.runs: Dict[int, CampaignRun] = {}
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, CampaignRun, List[Job]]]" = (
            asyncio.PriorityQueue()
        )
        self._seq = 0
        self._workers: List[asyncio.Task] = []
        self._sweeper: Optional[asyncio.Task] = None
        self._retry_timers: Dict[int, asyncio.TimerHandle] = {}
        self._timer_seq = 0
        self._executor = None
        self._executor_broken = False
        #: lease id -> live lease (jobs + owning run for settlement).
        self.leases: Dict[int, Lease] = {}
        #: key -> run whose queued batch will compute it (compute dedupe).
        self._inflight: Dict[str, CampaignRun] = {}
        #: key -> runs waiting on another run's in-flight computation.
        self._waiters: Dict[str, List[CampaignRun]] = {}
        #: Graceful drain (SIGTERM on ``serve``): no new leases are
        #: granted, local workers stop starting batches, in-flight work
        #: settles under :meth:`drain`'s deadline.
        self.draining = False
        #: Local batches currently executing (drain waits for zero).
        self._active_batches = 0
        #: Batches dequeued while draining: parked, never executed.  Their
        #: campaigns keep a non-terminal store status, so the next serve's
        #: ``resume()`` recomputes exactly the unfinished points.
        self._parked: List[Tuple[CampaignRun, List[Job]]] = []

    # ----------------------------------------------------------- submission
    async def submit(self, campaign: Campaign) -> CampaignRun:
        """Compile, dedupe against the store AND in-flight work, enqueue.

        A job already queued or executing for another campaign is not
        queued again: this run registers as a *waiter* and is credited (as
        ``cached``) the moment the owning run stores the result — so
        concurrently submitted overlapping campaigns compute each shared
        point exactly once.
        """
        jobs = campaign.jobs()
        keys = [job.key for job in jobs]
        present = self.store.present_keys(keys)
        campaign_id = self.store.create_campaign(
            json.dumps(campaign.to_dict()), campaign.name, keys
        )
        run = CampaignRun(id=campaign_id, campaign=campaign, jobs=jobs)
        pending = []
        job_events: List[Tuple[str, Dict[str, Any]]] = [(
            events_module.CAMPAIGN_SUBMITTED,
            {"name": campaign.name, "experiment": campaign.experiment,
             "total": len(jobs), "cached": len(present)},
        )]
        for job in jobs:
            if job.key in present:
                run.cached += 1
                run.states[job.key] = "completed"
                job_events.append(
                    (events_module.JOB_CACHED, job.summary())
                )
            elif job.key in self._inflight:
                self._waiters.setdefault(job.key, []).append(run)
                run.remaining += 1
                run.states[job.key] = "queued"
                job_events.append(
                    (events_module.JOB_QUEUED, job.summary())
                )
            else:
                self._inflight[job.key] = run
                pending.append(job)
                run.remaining += 1
                run.states[job.key] = "queued"
                job_events.append(
                    (events_module.JOB_QUEUED, job.summary())
                )
        self.runs[campaign_id] = run
        self.events.publish_many(campaign_id, job_events)
        if run.remaining == 0:
            self._finish(run)
            return run
        # A fresh submission grants a fresh retry budget: quarantine is a
        # per-submission verdict, not a permanent ban on the key.
        self.store.reset_attempts([job.key for job in pending])
        for batch in _batch_jobs(pending, self.batch_size):
            self._enqueue(run, batch)
        self._ensure_workers()
        return run

    async def resume(self) -> List[CampaignRun]:
        """Crash-resume: re-submit every campaign with a non-terminal status.

        Stored points are never recomputed — a resumed campaign only runs
        the jobs its crashed predecessor had not finished.  The original
        record is marked ``superseded`` only once its replacement is
        submitted; a record whose spec can no longer be loaded (corrupt
        JSON, renamed experiment) is marked ``failed`` and skipped, never
        blocking the campaigns after it.
        """
        resumed = []
        for record in self.store.unfinished_campaigns():
            if record["id"] in self.runs:
                continue  # still actively running in this process
            try:
                campaign = Campaign.from_dict(json.loads(record["spec_json"]))
                run = await self.submit(campaign)
            except Exception:
                self.store.set_campaign_status(record["id"], "failed")
                continue
            self.store.set_campaign_status(record["id"], "superseded")
            resumed.append(run)
        return resumed

    def _enqueue(self, run: CampaignRun, batch: List[Job]) -> None:
        self._seq += 1
        self._queue.put_nowait((-run.campaign.priority, self._seq, run, batch))

    # ------------------------------------------------------------ execution
    def _ensure_workers(self) -> None:
        if self.local_compute:
            alive = [task for task in self._workers if not task.done()]
            want = max(1, self.max_workers)
            while len(alive) < want:
                alive.append(asyncio.create_task(self._worker()))
            self._workers = alive
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.create_task(self._sweep_leases())

    def _pool(self):
        if self._executor is None and not self._executor_broken:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            except (ImportError, OSError, PermissionError):
                self._executor_broken = True
        return self._executor

    async def _execute(self, batch: List[Job]):
        loop = asyncio.get_running_loop()
        if self.max_workers <= 1:
            # In-process execution, but on the default thread pool: the
            # event loop (and with it the HTTP front-end) stays responsive
            # while a batch computes.
            return await loop.run_in_executor(None, execute_batch, batch)
        pool = self._pool()
        if pool is None:
            return await loop.run_in_executor(None, execute_batch, batch)
        from concurrent.futures.process import BrokenProcessPool

        try:
            return await loop.run_in_executor(pool, execute_batch, batch)
        except BrokenProcessPool:
            self._executor = None
            self._executor_broken = True
            return await loop.run_in_executor(None, execute_batch, batch)

    async def _execute_with_timeout(self, batch: List[Job]):
        """Batch execution under the per-job timeout budget.

        The budget is ``job_timeout * len(batch)`` — coarse on purpose: a
        pool slot cannot be interrupted between a batch's jobs, so the
        enforceable unit is the batch, and the budget scales with its
        share of per-job allowances.  On expiry the underlying future is
        abandoned (its eventual result is discarded) and every unresolved
        job goes through the failure path, counting one attempt each.
        """
        if self.job_timeout_s is None:
            return await self._execute(batch)
        budget = self.job_timeout_s * len(batch)
        try:
            return await asyncio.wait_for(self._execute(batch), timeout=budget)
        except asyncio.TimeoutError:
            raise JobTimeout(
                f"JobTimeout: batch of {len(batch)} exceeded "
                f"{budget:.1f}s ({self.job_timeout_s:.1f}s/job)"
            )

    async def _worker(self) -> None:
        while True:
            try:
                _, _, run, batch = await self._queue.get()
            except asyncio.CancelledError:
                return
            if self.draining:
                # Park instead of executing (or re-queueing, which would
                # spin): the campaign stays non-terminal in the store and
                # the next process's resume() picks the work back up.
                self._parked.append((run, batch))
                self._queue.task_done()
                continue
            aborted = False
            self._active_batches += 1
            try:
                if run.cancelled:
                    self._hand_over_cancelled_batch(run, batch)
                    continue
                # Jobs whose results landed while this batch waited (a late
                # fleet post after a lease expired and was requeued) are
                # settled from the store — completed work is never redone.
                present = self.store.present_keys([job.key for job in batch])
                todo: List[Job] = []
                for job in batch:
                    if job.key in present:
                        self._settle_success(run, job, plane="store")
                    else:
                        todo.append(job)
                if not todo:
                    continue
                for job in todo:
                    run.states[job.key] = "running"
                self.events.publish_many(run.id, [
                    (events_module.JOB_STARTED,
                     {**job.summary(), "plane": "local"})
                    for job in todo
                ])
                resolved = 0
                try:
                    outcomes = await self._execute_with_timeout(todo)
                    for key, job_id, workload, rows, error, tb, took in outcomes:
                        if error is not None:
                            self._handle_failure(run, todo[resolved], error, tb)
                        else:
                            faults.fire("scheduler.store_result", context=key)
                            self.store.put_result(
                                key, job_id, run.campaign.experiment, workload,
                                rows,
                            )
                            self._settle_success(
                                run, todo[resolved], plane="local",
                                duration_s=took, rows=rows,
                            )
                        resolved += 1
                except asyncio.CancelledError:
                    # close() aborted this batch mid-flight: the campaign is
                    # NOT complete — leave its store status non-terminal so
                    # a later resume() picks it up, and let the cancellation
                    # propagate.
                    aborted = True
                    raise
                except Exception as exc:
                    # Batch-level failure (pool death, store write error,
                    # timeout budget): every job not already resolved above
                    # counts one failed attempt.
                    message = f"{type(exc).__name__}: {exc}"
                    for job in todo[resolved:]:
                        self._handle_failure(run, job, message, None)
            finally:
                self._active_batches -= 1
                self._queue.task_done()

    # ------------------------------------------------------------ settlement
    def _settle_success(
        self,
        run: CampaignRun,
        job: Job,
        plane: str = "local",
        duration_s: Optional[float] = None,
        rows: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """One job's rows are in the store: credit the owner and waiters.

        Emits exactly one ``job.completed`` event per (run, key) — the
        accounting guarantees each key settles through exactly one path
        (local outcome, fleet post, store settle after a requeue), and a
        duplicated fleet post never reaches here (its lease is already
        popped, so it takes the store-only path in
        :meth:`complete_lease`).  The event carries the stored rows, so
        the CI events-smoke job can assert streamed completions match
        store rows bit-for-bit.
        """
        self._inflight.pop(job.key, None)
        run.computed += 1
        run.states[job.key] = "completed"
        self._m_completed.inc(plane=plane, workload=job.workload)
        self._m_accesses.inc(float(job.target_accesses), workload=job.workload)
        if duration_s is not None:
            self._m_job_seconds.observe(duration_s, plane=plane)
        if self.events.enabled:
            if rows is None:
                rows = self.store.get_result(job.key)
            self.events.publish(run.id, events_module.JOB_COMPLETED, {
                **job.summary(), "plane": plane,
                "duration_s": duration_s, "rows": rows,
            })
        self._settle_waiters(job.key)
        self._account(run, 1)

    def _handle_failure(
        self,
        run: CampaignRun,
        job: Job,
        error: str,
        traceback_text: Optional[str],
    ) -> None:
        """One failed attempt: retry with backoff, or quarantine."""
        attempts = self.store.record_attempt(job.key, error, traceback_text)
        if attempts < self.max_attempts and not run.cancelled:
            delay = backoff_delay(job.key, attempts, base=self.retry_base)
            run.states[job.key] = "retrying"
            self._m_retried.inc()
            self.events.publish(run.id, events_module.JOB_RETRIED, {
                **job.summary(), "attempt": attempts,
                "delay_s": round(delay, 3), "error": error,
            })
            loop = asyncio.get_running_loop()
            self._timer_seq += 1
            timer_id = self._timer_seq

            def requeue() -> None:
                self._retry_timers.pop(timer_id, None)
                run.states[job.key] = "queued"
                self._enqueue(run, [job])
                self._ensure_workers()

            self._retry_timers[timer_id] = loop.call_later(delay, requeue)
            return
        self.store.quarantine(job.key)
        self._inflight.pop(job.key, None)
        run.failed += 1
        run.quarantined += 1
        run.error = error
        run.states[job.key] = "quarantined"
        self._m_quarantined.inc()
        self.events.publish(run.id, events_module.JOB_QUARANTINED, {
            **job.summary(), "attempts": attempts, "error": error,
        })
        self._settle_waiters(job.key, error=error)
        self._account(run, 1)

    def _account(self, run: CampaignRun, settled: int) -> None:
        if not run.done.is_set():
            run.remaining -= settled
            if run.remaining <= 0:
                self._finish(run)

    def _settle_waiters(self, key: str, error: Optional[str] = None) -> None:
        """Credit (or fail) every run waiting on another run's in-flight job.

        Waiter runs update their per-state breakdown but emit no per-job
        event of their own — the point was computed (and announced) under
        the owning campaign's stream; waiters announce only their own
        ``campaign.finished``.
        """
        for waiter in self._waiters.pop(key, []):
            if error is None:
                waiter.cached += 1
                waiter.states[key] = "completed"
            else:
                waiter.failed += 1
                waiter.error = error
                waiter.states[key] = "quarantined"
            if not waiter.done.is_set():
                waiter.remaining -= 1
                if waiter.remaining <= 0:
                    self._finish(waiter)

    def _hand_over_cancelled_batch(self, run: CampaignRun, batch: List[Job]) -> None:
        """A cancelled run's batch is dropped — but any job other runs are
        waiting on is re-queued under its first waiter, so cancellation
        never strands a concurrent campaign."""
        for job in batch:
            self._inflight.pop(job.key, None)
            waiters = self._waiters.pop(job.key, None)
            if waiters:
                new_owner, *rest = waiters
                if rest:
                    self._waiters[job.key] = rest
                self._inflight[job.key] = new_owner
                self._enqueue(new_owner, [job])
        # The dropped jobs still settle the cancelled run's own accounting,
        # so wait()ers on it unblock with status "cancelled".
        self._account(run, len(batch))

    def _finish(self, run: CampaignRun) -> None:
        run.done.set()
        finished = [(events_module.CAMPAIGN_FINISHED, {
            "status": run.status, "total": run.total, "cached": run.cached,
            "computed": run.computed, "failed": run.failed,
            "quarantined": run.quarantined,
        })] if self.events.enabled else []
        # The terminal status and campaign.finished commit in one
        # transaction: a stream that reads either can trust the other.
        self.store.set_campaign_status(run.id, run.status, finished)
        if finished:
            self.events.notify(run.id, events_module.CAMPAIGN_FINISHED)

    # ----------------------------------------------------------- fleet plane
    def lease_next(
        self, worker: str, max_jobs: Optional[int] = None,
    ) -> Optional[Lease]:
        """Grant the next queued batch to a remote worker, or ``None``.

        The fleet competes with the local pool for the same priority
        queue; a granted batch is tracked in memory *and* as a TTL'd row
        in the store, so the sweeper can requeue it if the worker dies.

        A draining scheduler grants nothing: workers see an empty queue
        (``lease_id: null``), finish what they hold, and idle out.
        """
        if self.draining:
            return None
        while True:
            try:
                _, _, run, batch = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return None
            self._queue.task_done()
            if run.cancelled:
                self._hand_over_cancelled_batch(run, batch)
                continue
            if max_jobs is not None and len(batch) > max_jobs > 0:
                head, tail = batch[:max_jobs], batch[max_jobs:]
                self._enqueue(run, tail)
                batch = head
            lease_id = self.store.create_lease(
                worker, [job.key for job in batch], self.lease_ttl_s
            )
            lease = Lease(
                id=lease_id, worker=worker, run=run, jobs=batch,
                expires=time.time() + self.lease_ttl_s,
            )
            self.leases[lease_id] = lease
            self._m_leases_granted.inc(worker=worker)
            lease_events: List[Tuple[str, Dict[str, Any]]] = []
            if worker not in self._seen_workers:
                self._seen_workers.add(worker)
                lease_events.append(
                    (events_module.WORKER_REGISTERED, {"worker": worker})
                )
            lease_events.append((events_module.LEASE_GRANTED, {
                "lease_id": lease_id, "worker": worker,
                "jobs": len(batch), "ttl_s": self.lease_ttl_s,
            }))
            for job in batch:
                run.states[job.key] = "leased"
                lease_events.append((events_module.JOB_LEASED, {
                    **job.summary(), "lease_id": lease_id, "worker": worker,
                }))
            self.events.publish_many(run.id, lease_events)
            self._ensure_workers()  # the sweeper must be alive from now on
            return lease

    def heartbeat(self, lease_id: int) -> Optional[float]:
        """Extend a live lease's TTL; ``None`` if it is gone (expired)."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return None
        expires = self.store.heartbeat_lease(lease_id, self.lease_ttl_s)
        if expires is None:
            return None
        lease.expires = expires
        self._m_heartbeats.inc()
        self.events.publish(lease.run.id, events_module.LEASE_HEARTBEAT, {
            "lease_id": lease_id, "worker": lease.worker, "expires": expires,
        })
        return expires

    def complete_lease(
        self, lease_id: int, outcomes: Sequence[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Settle a worker's posted outcomes.

        Idempotent and loss-proof by construction: results for a lease
        that already expired (the sweeper requeued its jobs) or for an
        unknown lease (the scheduler restarted) are still written to the
        store — ``put_result`` is first-write-wins over deterministic
        rows, so a duplicated, late, or orphaned post can never corrupt or
        lose a result.  Only a *live* lease settles run accounting.
        """
        lease = self.leases.pop(lease_id, None)
        stored = 0
        for outcome in outcomes:
            if outcome.get("error") is None and outcome.get("rows") is not None:
                self.store.put_result(
                    str(outcome["key"]), str(outcome["job_id"]),
                    lease.run.campaign.experiment if lease is not None
                    else str(outcome.get("experiment", "unknown")),
                    str(outcome["workload"]), outcome["rows"],
                )
                stored += 1
        if lease is None:
            return {"ok": True, "stored": stored, "duplicate": True}
        self.store.finish_lease(lease_id)
        self._m_leases_done.inc(worker=lease.worker)
        self.events.publish(lease.run.id, events_module.LEASE_DONE, {
            "lease_id": lease_id, "worker": lease.worker,
            "outcomes": len(outcomes), "stored": stored,
        })
        jobs_by_key = {job.key: job for job in lease.jobs}
        for outcome in outcomes:
            key = str(outcome["key"])
            job = jobs_by_key.pop(key, None)
            if job is None:
                continue  # not part of this lease; stored above if valid
            if outcome.get("error") is None and outcome.get("rows") is not None:
                duration = outcome.get("duration_s")
                self._settle_success(
                    lease.run, job, plane="fleet",
                    duration_s=float(duration) if duration is not None else None,
                    rows=outcome["rows"],
                )
            else:
                self._handle_failure(
                    lease.run, job,
                    str(outcome.get("error") or "worker reported no rows"),
                    outcome.get("traceback"),
                )
        # Jobs the worker never reported (it abandoned the tail of the
        # batch): requeue them right away instead of waiting out the TTL.
        for job in jobs_by_key.values():
            self._handle_failure(
                lease.run, job,
                f"LeaseIncomplete: worker {lease.worker!r} returned no "
                f"outcome for this job", None,
            )
        return {"ok": True, "stored": stored, "duplicate": False}

    async def _sweep_leases(self) -> None:
        """Expire dead workers' leases and requeue their jobs.

        Each expired lease counts one failed attempt per job (a job that
        reliably kills its worker is still poison and must quarantine
        eventually); jobs whose results arrived late are settled from the
        store instead of re-running — completed work is never recomputed.
        """
        try:
            while True:
                await asyncio.sleep(self.sweep_interval)
                now = time.time()
                for lease_id in list(self.leases):
                    lease = self.leases.get(lease_id)
                    if lease is None:
                        continue
                    directive = faults.fire(
                        "scheduler.sweep", context=str(lease_id)
                    )
                    if lease.expires > now and directive != "expire":
                        continue
                    self.leases.pop(lease_id, None)
                    self.store.finish_lease(lease_id, status=LEASE_EXPIRED)
                    self._m_leases_expired.inc(worker=lease.worker)
                    # A dead worker that comes back re-registers.
                    self._seen_workers.discard(lease.worker)
                    self.events.publish_many(lease.run.id, [
                        (events_module.LEASE_EXPIRED, {
                            "lease_id": lease_id, "worker": lease.worker,
                            "jobs": len(lease.jobs),
                        }),
                        (events_module.WORKER_DEAD, {
                            "worker": lease.worker, "lease_id": lease_id,
                        }),
                    ])
                    present = self.store.present_keys(
                        [job.key for job in lease.jobs]
                    )
                    for job in lease.jobs:
                        if job.key in present:
                            self._settle_success(lease.run, job, plane="store")
                        else:
                            self._handle_failure(
                                lease.run, job,
                                f"LeaseExpired: worker {lease.worker!r} "
                                f"missed its TTL ({self.lease_ttl_s:.1f}s)",
                                None,
                            )
        except asyncio.CancelledError:
            return

    # ------------------------------------------------------------- control
    async def wait(self, run: CampaignRun) -> CampaignRun:
        await run.done.wait()
        return run

    def cancel(self, run: CampaignRun) -> None:
        """Cancel a run: queued batches are dropped when dequeued; batches
        already executing complete (their results are still stored)."""
        run.cancelled = True

    def results(self, run: CampaignRun) -> List[Dict[str, object]]:
        """The campaign's merged rows in deterministic job order."""
        merged: List[Dict[str, object]] = []
        for rows in self.store.campaign_rows(run.id):
            if rows:
                merged.extend(rows)
        return merged

    async def drain(self, deadline_s: float = 30.0) -> Dict[str, Any]:
        """Graceful drain: stop granting leases and starting batches, then
        wait (bounded by ``deadline_s``) for in-flight work to settle.

        "Settled" means no local batch is mid-execution and no remote
        lease is live — a worker holding a lease gets the deadline to
        finish and post; one that cannot simply loses the lease to the
        TTL sweeper on the *next* serve (jobs requeue, nothing is lost).
        Queued-but-unstarted batches stay parked with their campaigns
        non-terminal in the store, which is exactly what ``resume()``
        recomputes.  Returns a settlement report for the serve log.
        """
        self.draining = True
        deadline = time.time() + deadline_s
        while (self._active_batches or self.leases) and time.time() < deadline:
            await asyncio.sleep(0.05)
        return {
            "settled": not self._active_batches and not self.leases,
            "active_batches": self._active_batches,
            "live_leases": len(self.leases),
            "parked_batches": len(self._parked),
        }

    async def close(self) -> None:
        for timer in self._retry_timers.values():
            timer.cancel()
        self._retry_timers.clear()
        tasks = list(self._workers)
        if self._sweeper is not None:
            tasks.append(self._sweeper)
            self._sweeper = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except BaseException:
                # A worker task that already died of an exception (e.g. an
                # injected WorkerKilled crash) re-raises it here; shutdown
                # must bury the corpse, not re-throw it.
                pass
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
