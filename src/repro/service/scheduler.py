"""Async campaign scheduler: one lease path for local slots and remote workers.

Campaigns compile to job lists; jobs already in the persistent store are
skipped (resubmission is near-free), and the rest are **batched by trace
identity** — every job that replays the same ``(workload,
target_accesses, seed, num_nodes)`` trace shares one batch, so its holder
generates that packed trace once, exactly like ``run_parallel``.

Batches wait in one priority queue (campaign priority, then submission
order) and leave it only as **leases** (:meth:`Scheduler.lease_next`), to a
*local slot* — one task per ``max_workers``, running its batch on the
process pool (a thread at ``max_workers <= 1``) under a ``job_timeout ×
len(batch)`` budget — or to a *remote worker* that leases over HTTP and
heartbeats.  Both settle through :meth:`Scheduler.complete_lease` with the
same outcome dicts (:func:`job_outcome`).  A grant commits the lease row
with its events in one store transaction; a settle commits the result
rows, the lease's terminal status and its ``job.completed`` /
``lease.done`` events in one.  The holder kind is only a telemetry tag
(``job.started`` for local grants, ``job.leased`` for remote ones).  The
sweeper (:meth:`Scheduler.sweep`) requeues a remote lease whose TTL passed,
so a crashed worker costs one TTL; a local lease never expires while its
batch runs (only the timeout budget, when set, cuts it short).
``local_compute=False`` (``serve --remote-only``) leaves every batch to
the fleet; the store-backed read API answers either way.

Failure handling is per job, with persistent accounting: every failed
attempt (raised error, pool death, timeout, a lease that expired or came
back without the job) bumps the job's ``job_attempts`` row; a failed job
is requeued after a deterministic jittered backoff (:func:`backoff_delay`,
seeded from the job key); after ``max_attempts`` attempts it is
**quarantined** with its traceback and the campaign completes degraded.
A failure whose row landed anyway (a late post of an expired lease)
settles from the store instead.  A fresh submission resets the attempt
budget.

Results are stored the moment a lease settles, so a crash loses at most
in-flight work: :meth:`Scheduler.resume` re-opens every campaign still
``running`` under its own id, and only the missing points run.  Lease
time comes from one injected ``clock``, so ``tests/test_scheduler_model.py``
drives expiry without sleeping.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import service_batch_size
from repro.common.rng import backoff_delay
from repro.experiments.runner import default_parallel_workers
from repro.service import events as events_module
from repro.service import faults
from repro.service.events import EventBus
from repro.service.metrics import MetricsRegistry
from repro.service.spec import Campaign, Job
from repro.service.store import LEASE_EXPIRED, ResultStore

#: Per-job states the breakdown in ``GET /campaigns/<id>`` reports;
#: ``cancelled`` is a job its campaign's cancel dropped from the queue.
JOB_STATES: Tuple[str, ...] = (
    "queued", "leased", "running", "completed", "retrying", "quarantined",
    "cancelled",
)

#: Max jobs per batch unless ``REPRO_SERVICE_BATCH`` says otherwise.
BATCH_SIZE = 64

#: Attempts per job before it is quarantined (the campaign completes
#: degraded instead of hanging).
MAX_ATTEMPTS = 3

#: Remote-worker lease time-to-live in seconds: a worker that neither
#: heartbeats nor posts within it is presumed dead, and the sweeper
#: requeues its jobs.
LEASE_TTL_S = 60.0


def job_outcome(
    job: Job, compute: Callable[[], List[Dict[str, object]]],
) -> Dict[str, Any]:
    """Run ``compute`` for ``job`` and wrap its rows, or its error and
    traceback, as the outcome dict every lease holder settles with.

    The duration is telemetry only: it feeds the latency histogram and
    ``job.completed`` events, never a result row.
    """
    outcome: Dict[str, Any] = {
        "key": job.key, "job_id": job.job_id,
        "workload": job.workload, "experiment": job.experiment,
    }
    started = time.time()
    try:
        outcome["rows"] = compute()
        outcome["error"] = None
    except Exception as exc:
        outcome["rows"] = None
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["traceback"] = traceback_module.format_exc()
    outcome["duration_s"] = time.time() - started
    return outcome


def execute_batch(jobs: Sequence[Job]) -> List[Dict[str, Any]]:
    """Run one local batch (in a pool process or a thread).  Its jobs share
    a trace, which the first generates and the rest reuse (``trace_for``'s
    lru_cache); failures are isolated per job."""
    return [job_outcome(job, job.execute) for job in jobs]


# backoff_delay lives in repro.common.rng (shared with the HTTP transport's
# reconnect plane since PR 10) and is re-exported here via the import above,
# so `from repro.service.scheduler import backoff_delay` keeps working.


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
    """One live lease: the scheduler-side view of a granted batch."""

    id: int
    worker: str
    run: CampaignRun
    jobs: List[Job]
    expires: float
    #: Held by a local slot: never expired by the sweeper, since the slot
    #: lives in this process and holds it until its batch returns (or its
    #: timeout budget, when one is set, fails it).
    local: bool = False


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
    per-job retry/quarantine, and one lease path for every holder."""

    def __init__(
        self,
        store: ResultStore,
        max_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        local_compute: bool = True,
        job_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        retry_base: float = 0.5,
        lease_ttl_s: Optional[float] = None,
        sweep_interval: Optional[float] = None,
        events: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        #: Lease time source (grants, heartbeats, expiry).
        self.clock = clock
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
            "repro_leases_granted_total", "leases granted, by holder"
        )
        self._m_leases_done = self.metrics.counter(
            "repro_leases_completed_total", "leases settled by their holder"
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
        #: Holder ids already announced via a worker.registered event.
        self._seen_workers: set = set()
        self.max_workers = (
            max_workers if max_workers is not None else default_parallel_workers()
        )
        self.batch_size = max(
            1, batch_size if batch_size is not None else service_batch_size(BATCH_SIZE)
        )
        #: ``False`` = fleet-only: batches wait for remote leases
        #: (``serve --remote-only``); reads and submissions still work.
        self.local_compute = local_compute
        #: Per-job execution budget in seconds; ``None`` = no timeout.
        self.job_timeout_s = job_timeout_s
        self.max_attempts = (
            max_attempts if max_attempts is not None else MAX_ATTEMPTS
        )
        self.retry_base = retry_base
        self.lease_ttl_s = lease_ttl_s if lease_ttl_s is not None else LEASE_TTL_S
        self.sweep_interval = (
            sweep_interval
            if sweep_interval is not None
            else max(0.25, min(self.lease_ttl_s / 4.0, 5.0))
        )
        self.runs: Dict[int, CampaignRun] = {}
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, CampaignRun, List[Job]]]" = (
            asyncio.PriorityQueue()
        )
        #: Set whenever a batch is queued; idle local slots wait on it.
        self._queued = asyncio.Event()
        self._seq = 0
        #: Local slot name -> its task.
        self._slots: Dict[str, asyncio.Task] = {}
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
        #: Graceful drain (SIGTERM on ``serve``): no lease is granted to
        #: any holder, live leases settle under :meth:`drain`'s deadline.
        self.draining = False

    # ----------------------------------------------------------- submission
    async def submit(self, campaign: Campaign) -> CampaignRun:
        """Record a new campaign and open it (:meth:`_open`)."""
        jobs = campaign.jobs()
        campaign_id = self.store.create_campaign(
            json.dumps(campaign.to_dict()), campaign.name, [job.key for job in jobs]
        )
        return self._open(campaign_id, campaign, jobs)

    async def resume(self) -> List[CampaignRun]:
        """Crash-resume: re-open every ``running`` campaign under its own id.

        A resume continues the crashed submission: its retry budget, and
        its event stream, where each key keeps at most one verdict.  Stored
        points are credited (and never recomputed), a key already out of
        attempts stays failed, and the rest run.  A record whose spec can
        no longer be loaded (corrupt JSON, a renamed experiment, keys this
        build no longer compiles) is marked ``failed`` and skipped, never
        blocking the campaigns after it.
        """
        resumed = []
        for record in self.store.unfinished_campaigns():
            if record["id"] in self.runs:
                continue  # still actively running in this process
            try:
                campaign = Campaign.from_dict(json.loads(record["spec_json"]))
                jobs = campaign.jobs()
                if [job.key for job in jobs] != self.store.campaign_keys(record["id"]):
                    raise ValueError("spec no longer compiles to the stored keys")
            except Exception:
                self.store.set_campaign_status(record["id"], "failed")
                continue
            resumed.append(self._open(record["id"], campaign, jobs, resumed=True))
        return resumed

    def _open(
        self, campaign_id: int, campaign: Campaign, jobs: List[Job],
        resumed: bool = False,
    ) -> CampaignRun:
        """Register a run, dedupe its jobs against the store AND in-flight
        work, and enqueue the rest.

        A job already queued or executing for another campaign is not
        queued again: this run registers as a *waiter* and is credited (as
        ``cached``) the moment the owning run stores the result — so
        concurrently submitted overlapping campaigns compute each shared
        point exactly once.  A fresh submission announces every job and
        grants the pending ones a fresh retry budget; a resumed one
        publishes nothing for the jobs its stream already announced, and
        fails a quarantined key without a second verdict.
        """
        present = self.store.present_keys([job.key for job in jobs])
        spent = self.store.quarantined_keys(campaign_id) if resumed else {}
        run = CampaignRun(id=campaign_id, campaign=campaign, jobs=jobs)
        pending = []
        job_events: List[Tuple[str, Dict[str, Any]]] = [] if resumed else [(
            events_module.CAMPAIGN_SUBMITTED,
            {"name": campaign.name, "experiment": campaign.experiment,
             "total": len(jobs), "cached": len(present)},
        )]
        for job in jobs:
            if job.key in present:
                run.cached += 1
                run.states[job.key] = "completed"
                kind = events_module.JOB_CACHED
            elif job.key in spent:
                run.failed += 1
                run.quarantined += 1
                run.error = spent[job.key]
                run.states[job.key] = "quarantined"
                continue
            else:
                if job.key in self._inflight:
                    self._waiters.setdefault(job.key, []).append(run)
                else:
                    self._inflight[job.key] = run
                    pending.append(job)
                run.remaining += 1
                run.states[job.key] = "queued"
                kind = events_module.JOB_QUEUED
            if not resumed:
                job_events.append((kind, job.summary()))
        self.runs[campaign_id] = run
        self.events.publish_many(campaign_id, job_events)
        if run.remaining == 0:
            self._finish(run)
            return run
        if not resumed:
            # A fresh submission grants a fresh retry budget: quarantine is
            # a per-submission verdict, not a permanent ban on the key.
            self.store.reset_attempts([job.key for job in pending])
        for batch in _batch_jobs(pending, self.batch_size):
            self._enqueue(run, batch)
        self._ensure_workers()
        return run

    def _enqueue(self, run: CampaignRun, batch: List[Job]) -> None:
        self._seq += 1
        self._queue.put_nowait((-run.campaign.priority, self._seq, run, batch))
        self._queued.set()

    # ---------------------------------------------------------- local slots
    def _ensure_workers(self) -> None:
        if self.local_compute:
            for index in range(max(1, self.max_workers)):
                name = f"local-{index + 1}"
                slot = self._slots.get(name)
                if slot is None or slot.done():
                    self._slots[name] = asyncio.create_task(self._slot(name))
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.create_task(self._sweep_leases())

    async def _slot(self, name: str) -> None:
        """One local slot: lease the next batch like a fleet worker, run
        it, settle it; idle while nothing can be granted (empty queue or
        a draining scheduler)."""
        while True:
            lease = self.lease_next(name, local=True)
            if lease is None:
                self._queued.clear()
                await self._queued.wait()
            else:
                await self._run_local(lease)

    def _pool(self):
        if self._executor is None and not self._executor_broken:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            except (ImportError, OSError, PermissionError):
                self._executor_broken = True
        return self._executor

    async def _execute(self, batch: List[Job]) -> List[Dict[str, Any]]:
        # At max_workers <= 1 (or once the pool broke) the batch runs on
        # the default thread pool: in process, but the event loop (and
        # with it the HTTP front-end) stays responsive while it computes.
        from concurrent.futures.process import BrokenProcessPool

        loop = asyncio.get_running_loop()
        pool = self._pool() if self.max_workers > 1 else None
        try:
            return await loop.run_in_executor(pool, execute_batch, batch)
        except BrokenProcessPool:
            self._executor = None
            self._executor_broken = True
            return await loop.run_in_executor(None, execute_batch, batch)

    async def _run_local(self, lease: Lease) -> None:
        """Run a local lease's batch and settle it like a worker's post.

        A pool slot cannot be interrupted between jobs, so the timeout
        budget, ``job_timeout × len(batch)``, covers the batch; a timeout, a
        dead pool or a failed settle costs each job one attempt.  ``close()``
        cancels it unsettled, leaving the campaign to ``resume()``."""
        budget = (
            None if self.job_timeout_s is None
            else self.job_timeout_s * len(lease.jobs)
        )
        try:
            outcomes = await asyncio.wait_for(self._execute(lease.jobs), budget)
            self.complete_lease(lease.id, outcomes)
            return
        except asyncio.TimeoutError:
            error = (
                f"JobTimeout: batch of {len(lease.jobs)} exceeded "
                f"{budget:.1f}s ({self.job_timeout_s:.1f}s/job)"
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        self.complete_lease(
            lease.id, [{"key": job.key, "error": error} for job in lease.jobs]
        )

    # ------------------------------------------------------------ settlement
    def _credit(
        self, run: CampaignRun, job: Job, plane: str,
        duration_s: Optional[float] = None,
    ) -> None:
        """One job's rows are in the store: credit the owner and waiters
        (the caller commits the one ``job.completed`` event of the key)."""
        self._inflight.pop(job.key, None)
        run.computed += 1
        run.states[job.key] = "completed"
        self._m_completed.inc(plane=plane, workload=job.workload)
        self._m_accesses.inc(float(job.target_accesses), workload=job.workload)
        if duration_s is not None:
            self._m_job_seconds.observe(duration_s, plane=plane)
        self._settle_waiters(job.key)
        self._account(run, 1)

    def _handle_failure(
        self,
        run: CampaignRun,
        job: Job,
        error: str,
        traceback_text: Optional[str],
    ) -> None:
        """One failed attempt: retry with backoff, or quarantine.  A
        cancelled run retries nothing itself: its waiters take the job over.
        A job whose row is stored anyway (an expired lease's late post)
        settles from the store instead, so no stored key is quarantined."""
        rows = self.store.get_result(job.key)
        if rows is not None:
            if self.events.enabled:
                self.events.publish(run.id, events_module.JOB_COMPLETED, {
                    **job.summary(), "plane": "store", "duration_s": None,
                    "rows": rows,
                })
            self._credit(run, job, "store")
            return
        attempts = self.store.record_attempt(job.key, error, traceback_text)
        if attempts < self.max_attempts and run.cancelled:
            self._hand_over_cancelled_batch(run, [job])
            return
        if attempts < self.max_attempts:
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
        """A cancelled run's batch is dropped (its jobs read ``cancelled``)
        — but any job other runs are waiting on is re-queued under its
        first waiter, so cancellation never strands a concurrent campaign."""
        for job in batch:
            run.states[job.key] = "cancelled"
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

    # ---------------------------------------------------------------- leases
    def lease_next(
        self, worker: str, max_jobs: Optional[int] = None, local: bool = False,
    ) -> Optional[Lease]:
        """Grant the next queued batch to a local slot (``local=True``) or a
        remote worker, or ``None``: every batch leaves the queue here.  A
        cancelled run's batch is handed over instead; ``max_jobs`` splits a
        batch and requeues the tail.  A draining scheduler grants nothing,
        so holders idle out and the batches stay queued."""
        while not self.draining:
            try:
                _, _, run, batch = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return None
            if run.cancelled:
                self._hand_over_cancelled_batch(run, batch)
                continue
            if max_jobs is not None and len(batch) > max_jobs > 0:
                self._enqueue(run, batch[max_jobs:])
                batch = batch[:max_jobs]
            return self._grant(worker, run, batch, local)
        return None

    def _grant(
        self, worker: str, run: CampaignRun, batch: List[Job], local: bool,
    ) -> Lease:
        """Commit a lease of ``batch`` to ``worker``: its store row (with
        the TTL the sweeper checks) and its events in one transaction."""
        now = self.clock()
        entries: List[Tuple[str, Dict[str, Any]]] = []
        if self.events.enabled:
            if worker not in self._seen_workers:
                entries.append(
                    (events_module.WORKER_REGISTERED, {"worker": worker})
                )
            entries.append((events_module.LEASE_GRANTED, {
                "worker": worker, "jobs": len(batch), "ttl_s": self.lease_ttl_s,
            }))
            kind, tag = (
                (events_module.JOB_STARTED, {"plane": "local"}) if local
                else (events_module.JOB_LEASED, {"worker": worker})
            )
            entries += [(kind, {**job.summary(), **tag}) for job in batch]
        lease_id = self.store.create_lease(
            worker, [job.key for job in batch], self.lease_ttl_s, now=now,
            campaign_id=run.id, events=entries,
        )
        lease = Lease(
            id=lease_id, worker=worker, run=run, jobs=batch,
            expires=now + self.lease_ttl_s, local=local,
        )
        self.leases[lease_id] = lease
        self._seen_workers.add(worker)
        self._m_leases_granted.inc(worker=worker)
        for job in batch:
            run.states[job.key] = "running" if local else "leased"
        if entries:
            self.events.notify(run.id, events_module.LEASE_GRANTED)
        self._ensure_workers()  # the sweeper must be alive from now on
        return lease

    def heartbeat(self, lease_id: int) -> Optional[float]:
        """Extend a live lease's TTL; ``None`` if it is gone (expired)."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return None
        expires = self.store.heartbeat_lease(
            lease_id, self.lease_ttl_s, now=self.clock()
        )
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
        """Settle a holder's outcomes (a local slot's or a worker's post).

        Idempotent and loss-proof: the results of an expired lease or of
        one this process never granted (a restart) are stored all the same,
        first-write-wins over deterministic rows; only a *live* lease
        settles run accounting.  The ``scheduler.store_result`` fault site
        fires per stored result before the settle's one transaction."""
        stored = [
            outcome for outcome in outcomes
            if outcome.get("error") is None and outcome.get("rows") is not None
        ]
        for outcome in stored:
            faults.fire("scheduler.store_result", context=str(outcome["key"]))
        lease = self.leases.get(lease_id)
        results = [(
            str(outcome["key"]), str(outcome["job_id"]),
            lease.run.campaign.experiment if lease is not None
            else str(outcome.get("experiment", "unknown")),
            str(outcome["workload"]), outcome["rows"],
        ) for outcome in stored]
        if lease is None:
            self.store.finish_lease(lease_id, results=results)
            return {"ok": True, "stored": len(stored), "duplicate": True}
        plane = "local" if lease.local else "fleet"
        jobs_by_key = {job.key: job for job in lease.jobs}
        completed = [
            (jobs_by_key.pop(str(outcome["key"])), outcome)
            for outcome in stored if str(outcome["key"]) in jobs_by_key
        ]
        entries: List[Tuple[str, Dict[str, Any]]] = []
        if self.events.enabled:
            entries.append((events_module.LEASE_DONE, {
                "worker": lease.worker, "outcomes": len(outcomes),
                "stored": len(stored),
            }))
            for job, outcome in completed:
                entries.append((events_module.JOB_COMPLETED, {
                    **job.summary(), "plane": plane,
                    "duration_s": outcome.get("duration_s"),
                    "rows": outcome["rows"],
                }))
        self.store.finish_lease(
            lease_id, results=results, campaign_id=lease.run.id, events=entries,
        )
        del self.leases[lease_id]
        self._m_leases_done.inc(worker=lease.worker)
        if entries:
            self.events.notify(lease.run.id, events_module.LEASE_DONE)
        for job, outcome in completed:
            self._credit(lease.run, job, plane, outcome.get("duration_s"))
        for outcome in outcomes:
            job = jobs_by_key.pop(str(outcome["key"]), None)
            if job is not None:
                self._handle_failure(
                    lease.run, job,
                    str(outcome.get("error") or "worker reported no rows"),
                    outcome.get("traceback"),
                )
        # Jobs the holder never reported (it abandoned the tail of the
        # batch): requeue them right away instead of waiting out the TTL.
        for job in jobs_by_key.values():
            self._handle_failure(
                lease.run, job,
                f"LeaseIncomplete: worker {lease.worker!r} returned no "
                f"outcome for this job", None,
            )
        return {"ok": True, "stored": len(stored), "duplicate": False}

    def sweep(self) -> None:
        """One sweeper step: expire every remote lease past its TTL.

        Each expired job counts one failed attempt (a job that reliably
        kills its worker is poison and must quarantine eventually), unless
        its result arrived late (:meth:`_handle_failure`).  Local leases
        are skipped: their slot holds them until the batch returns."""
        now = self.clock()
        for lease_id, lease in list(self.leases.items()):
            if lease.local or lease_id not in self.leases:
                continue
            directive = faults.fire("scheduler.sweep", context=str(lease_id))
            if lease.expires > now and directive != "expire":
                continue
            del self.leases[lease_id]
            self._m_leases_expired.inc(worker=lease.worker)
            # A dead worker that comes back re-registers.
            self._seen_workers.discard(lease.worker)
            entries = [
                (events_module.LEASE_EXPIRED,
                 {"worker": lease.worker, "jobs": len(lease.jobs)}),
                (events_module.WORKER_DEAD, {"worker": lease.worker}),
            ] if self.events.enabled else []
            self.store.finish_lease(
                lease_id, status=LEASE_EXPIRED, campaign_id=lease.run.id,
                events=entries,
            )
            if entries:
                self.events.notify(lease.run.id, events_module.LEASE_EXPIRED)
            for job in lease.jobs:
                self._handle_failure(
                    lease.run, job,
                    f"LeaseExpired: worker {lease.worker!r} "
                    f"missed its TTL ({self.lease_ttl_s:.1f}s)", None,
                )

    async def _sweep_leases(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            self.sweep()

    # ------------------------------------------------------------- control
    async def wait(self, run: CampaignRun) -> CampaignRun:
        await run.done.wait()
        return run

    def cancel(self, run: CampaignRun) -> None:
        """Cancel a run: queued batches are dropped when dequeued; leased
        batches still settle (their results are stored)."""
        run.cancelled = True

    async def drain(self, deadline_s: float = 30.0) -> Dict[str, Any]:
        """Graceful drain: grant no more leases, then wait (bounded by
        ``deadline_s``) for every live lease, local or remote, to settle.

        A worker holding a lease gets the deadline to finish and post; one
        that cannot simply loses the lease to the TTL sweeper on the
        *next* serve (jobs requeue, nothing is lost).  Queued batches stay
        queued with their campaigns non-terminal in the store, which is
        exactly what ``resume()`` recomputes.  Returns a settlement report
        for the serve log.
        """
        self.draining = True
        deadline = time.monotonic() + deadline_s
        while self.leases and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        return {
            "settled": not self.leases,
            "live_leases": len(self.leases),
            "queued_batches": self._queue.qsize(),
        }

    async def close(self) -> None:
        for timer in self._retry_timers.values():
            timer.cancel()
        self._retry_timers.clear()
        tasks = list(self._slots.values())
        if self._sweeper is not None:
            tasks.append(self._sweeper)
            self._sweeper = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception, faults.WorkerKilled):
                # Cancelled here, or a slot that already died (e.g. of an
                # injected WorkerKilled crash) re-raising it: shutdown must
                # bury the corpse, not re-throw it.
                pass
        self._slots = {}
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
