"""Remote lease worker: the fleet side of the distributed execution plane.

``python -m repro.service work --url http://host:port`` runs one worker
process.  The loop is deliberately simple — every hard problem (retry,
quarantine, loss-proofing) lives server-side, so a worker can be killed at
any instruction with no recovery protocol:

1. ``POST /leases`` — lease the next queued batch of jobs (trace-identity
   grouped, so the batch shares its packed trace).  Empty queue → sleep a
   jittered ``poll_interval`` and poll again.
2. For each job: heartbeat the lease (a **410** means the server already
   expired it and requeued the jobs — abandon the batch, results would be
   redundant), then execute the job under the per-job timeout.
3. ``POST /leases/<id>/results`` — per-job outcomes (rows or error +
   traceback).  The server treats results idempotently: a duplicated or
   late post of deterministic rows is first-write-wins-identical.

Every HTTP call goes through the retrying
:class:`~repro.service.transport.HttpTransport` (PR 10): transient
connection resets, refused connections during a server restart, and
mid-body disconnects are retried with deterministic backoff, so a server
bounce mid-campaign costs a worker nothing but the wait.  Only when the
transport's whole retry budget is spent (``TransportError``) does the
worker treat the server as gone: a handful of consecutive give-ups on the
poll loop exits 1, and a give-up mid-batch abandons the lease (the TTL
sweeper requeues the jobs server-side).  A terminal status (one the
transport does not retry, other than a heartbeat's 410) also exits 1.

Graceful drain: :meth:`Worker.request_stop` (wired to SIGTERM by
:func:`run_worker`) lets the worker finish the job it is executing, post
what it has, and exit 0 — the lease protocol makes the unreported tail
requeue-on-expiry, so a drained worker never strands a campaign.

Workers never publish telemetry events themselves: the server turns their
existing protocol traffic (lease grants, heartbeats, results posts) into
events on its own durable log, so a worker crash can never half-write the
event plane.  The only worker-side telemetry is a per-job ``duration_s``
riding along in each outcome.

Crash safety: a worker that dies mid-batch simply stops heartbeating; the
server's sweeper expires the lease after its TTL and requeues the jobs.
Jobs completed before the crash were *not* posted (posts are per batch),
but their recomputation is the only repeated work — everything already in
the store stays computed exactly once.

Fault-injection sites (active only when a
:class:`~repro.service.faults.FaultPlan` is installed): ``worker.lease``
before each poll, ``worker.job`` before each execution (context
``"<worker_id>:<job key>"``), ``worker.post_results`` before each post
(directives: ``drop`` = never post, ``duplicate`` = post twice), plus the
transport-level ``transport.connect`` / ``transport.read`` sites.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from typing import Any, Dict, List, Optional

from repro.common.rng import DeterministicRNG
from repro.service import faults
from repro.service.scheduler import job_outcome
from repro.service.spec import Job
from repro.service.transport import HttpTransport, StatusError, TransportError

#: Consecutive poll-loop transport give-ups (each one a full retry budget)
#: before the worker concludes the server is gone for good and exits 1.
MAX_POLL_GIVEUPS = 5


class LeaseGone(Exception):
    """The server expired our lease (heartbeat got a 410): abandon it."""


class Worker:
    """One lease-protocol worker driving a remote scheduler."""

    def __init__(
        self,
        url: str,
        worker_id: Optional[str] = None,
        max_jobs: Optional[int] = None,
        poll_interval: float = 1.0,
        job_timeout_s: Optional[float] = None,
        max_idle_polls: Optional[int] = None,
        http_timeout: float = 60.0,
        http_retries: Optional[int] = None,
        backoff_base: float = 0.2,
    ) -> None:
        self.url = url.rstrip("/")
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.max_jobs = max_jobs
        self.poll_interval = poll_interval
        #: Per-job execution budget in seconds; ``None`` = no timeout.
        self.job_timeout_s = job_timeout_s
        #: Exit cleanly after this many consecutive empty polls (CI / tests
        #: drain-and-stop mode); ``None`` = poll forever.
        self.max_idle_polls = max_idle_polls
        self.transport = HttpTransport(
            self.url, timeout=http_timeout, retries=http_retries,
            backoff_base=backoff_base,
        )
        #: Set by :meth:`request_stop` (SIGTERM): finish the current job,
        #: post what we have, exit 0.
        self.stop_requested = False
        # Jitter RNG seeded by the worker id: a fleet started in lockstep
        # de-synchronizes its polls deterministically.
        self._rng = DeterministicRNG(sum(self.worker_id.encode()) or 1)
        self._executor: Optional[ThreadPoolExecutor] = None
        self.leases_done = 0
        self.jobs_done = 0
        self.jobs_failed = 0

    # ----------------------------------------------------------------- HTTP
    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.transport.post(path, payload)

    # ------------------------------------------------------------ execution
    def _executor_slot(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=1)
        return self._executor

    def _run_job(self, job: Job) -> List[Dict[str, object]]:
        """Execute one job under the per-job timeout.

        The job runs on a single-slot thread executor so the timeout is
        enforceable from here; on expiry the slot is abandoned (the stuck
        thread is orphaned — daemonic, dies with the process) and a fresh
        executor takes over for the next job.
        """
        if self.job_timeout_s is None:
            return job.execute()
        future = self._executor_slot().submit(job.execute)
        try:
            return future.result(timeout=self.job_timeout_s)
        except FutureTimeout:
            self._executor.shutdown(wait=False)
            self._executor = None
            raise TimeoutError(
                f"JobTimeout: exceeded {self.job_timeout_s:.1f}s"
            ) from None

    def _compute(self, job: Job) -> List[Dict[str, object]]:
        faults.fire("worker.job", context=f"{self.worker_id}:{job.key}")
        return self._run_job(job)

    def _heartbeat(self, lease_id: int) -> None:
        try:
            self._post(f"/leases/{lease_id}/heartbeat", {})
        except StatusError as exc:
            if exc.code == 410:
                raise LeaseGone(f"lease {lease_id} expired") from exc
            raise

    def request_stop(self) -> None:
        """Graceful drain: finish the in-flight job, post, exit 0."""
        self.stop_requested = True

    def _process_lease(self, lease: Dict[str, Any]) -> None:
        lease_id = int(lease["lease_id"])
        outcomes: List[Dict[str, Any]] = []
        for data in lease["jobs"]:
            if self.stop_requested:
                # Drain: stop *between* jobs — what we computed is posted
                # below, the unreported tail requeues on lease expiry.
                break
            job = Job.from_wire(data)
            try:
                self._heartbeat(lease_id)
            except LeaseGone:
                # The server already requeued this batch; anything we
                # computed so far is posted anyway (idempotent) so the
                # sweeper's requeue finds it in the store.
                break
            except TransportError:
                # Server unreachable past the whole retry budget mid-batch:
                # abandon the lease, the sweeper requeues it.  Completed
                # outcomes are lost-but-recomputable, like a crash.
                return
            # The fault fires inside the per-job isolation on purpose: an
            # injected ``raise`` is a job failure (reported, retried
            # server-side) while ``kill`` (BaseException) still takes the
            # worker down.
            outcome = job_outcome(job, lambda: self._compute(job))
            if outcome["error"] is None:
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
            outcomes.append(outcome)
        directive = faults.fire("worker.post_results", context=self.worker_id)
        if directive == "drop":
            return  # simulated lost post: the TTL sweeper recovers the jobs
        posts = 2 if directive == "duplicate" else 1
        for _ in range(posts):
            # The transport retries through restarts; the post is
            # first-write-wins idempotent server-side, and a post to a
            # restarted server that no longer knows the lease is still
            # stored (the "late results" path), so nothing is lost.
            self._post(f"/leases/{lease_id}/results", {"outcomes": outcomes})
        self.leases_done += 1

    # ----------------------------------------------------------------- loop
    def run(self) -> int:
        """Poll-execute-post until idle-exit or drain (0), or the server is
        gone past every retry budget or refuses a call with a terminal
        status (1)."""
        idle = 0
        giveups = 0
        while True:
            if self.stop_requested:
                return 0
            faults.fire("worker.lease", context=self.worker_id)
            try:
                lease = self._post(
                    "/leases",
                    {"worker": self.worker_id, "max_jobs": self.max_jobs},
                )
                giveups = 0
            except TransportError:
                # One TransportError already burned a full retry budget
                # with backoff inside the transport.
                giveups += 1
                if giveups >= MAX_POLL_GIVEUPS:
                    return 1  # server gone for good
                time.sleep(self.poll_interval)
                continue
            except StatusError:
                return 1  # the server said no: asking again cannot help
            if lease.get("lease_id") is None:
                idle += 1
                if self.max_idle_polls is not None and idle >= self.max_idle_polls:
                    return 0
                time.sleep(
                    self.poll_interval * (0.5 + 0.5 * self._rng.random())
                )
                continue
            idle = 0
            try:
                self._process_lease(lease)
            except StatusError:
                return 1  # the lease's jobs requeue when it expires
            except TransportError:
                # Results post failed past the retry budget: the batch is
                # recomputable via lease expiry; count it like a poll
                # give-up so a dead server still fails us cleanly.
                giveups += 1
                if giveups >= MAX_POLL_GIVEUPS:
                    return 1
                time.sleep(self.poll_interval)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None


def run_worker(
    url: str,
    worker_id: Optional[str] = None,
    max_jobs: Optional[int] = None,
    poll_interval: float = 1.0,
    job_timeout_s: Optional[float] = None,
    max_idle_polls: Optional[int] = None,
    fault_plan_path: Optional[str] = None,
) -> int:
    """CLI entry: optionally install a fault plan, then run one worker.

    SIGTERM triggers a graceful drain: the worker finishes the job it is
    on, posts the batch's completed outcomes, and exits 0.
    """
    if fault_plan_path:
        faults.install(faults.FaultPlan.load(fault_plan_path))
    worker = Worker(
        url,
        worker_id=worker_id,
        max_jobs=max_jobs,
        poll_interval=poll_interval,
        job_timeout_s=job_timeout_s,
        max_idle_polls=max_idle_polls,
    )
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda signum, frame: worker.request_stop())
    try:
        return worker.run()
    except faults.WorkerKilled:
        return 17  # soft kill: stop dead without posting, like a crash
    finally:
        worker.close()
