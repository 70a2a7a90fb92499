"""The service runtime: one store + one scheduler on a background loop.

:class:`Service` is the synchronous facade both front-ends (HTTP handlers
and the CLI) drive: it owns a :class:`~repro.service.store.ResultStore`, an
event loop running on a daemon thread, and a
:class:`~repro.service.scheduler.Scheduler` living on that loop.  All
methods are thread-safe (they marshal onto the loop), so any number of
HTTP handler threads can submit and poll concurrently.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.service.events import EventBus
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import JOB_STATES, CampaignRun, Scheduler
from repro.service.spec import Campaign
from repro.service.store import ResultStore


def render_stored_campaign(store: ResultStore, campaign_id: int) -> str:
    """Render a stored campaign's table, partial or whole, straight from the
    store: :meth:`Campaign.render` over :meth:`ResultStore.merged_rows`.

    Read-only — no scheduler or event loop required (the ``results`` CLI
    subcommand uses this directly).
    """
    record = store.campaign(campaign_id)
    if record is None:
        raise KeyError(f"no campaign {campaign_id}")
    campaign = Campaign.from_dict(json.loads(record["spec_json"]))
    return campaign.render(store.merged_rows(campaign_id))


def stored_progress(store: ResultStore, campaign_id: int) -> Optional[Dict[str, Any]]:
    """A campaign's progress from the store alone (``None`` if unknown): what
    ``GET /campaigns/<id>`` serves for a campaign not live in this process,
    and what the CLI's local ``status <id>`` prints.  The breakdown derives
    from the store alone: a key with a row is completed, one flagged
    quarantined (no row, out of attempts) is quarantined, the rest queued,
    or cancelled when the campaign was (its cancel dropped them)."""
    record = store.campaign(campaign_id)
    if record is None:
        return None
    keys = store.campaign_keys(campaign_id)
    stored = len(store.present_keys(keys))
    quarantined = len(store.quarantined_keys(campaign_id))
    states = {state: 0 for state in JOB_STATES}
    states["completed"] = stored
    states["quarantined"] = quarantined
    rest = "cancelled" if record["status"] == "cancelled" else "queued"
    states[rest] = len(keys) - stored - quarantined
    return {
        "campaign_id": record["id"],
        "name": record["name"],
        "status": record["status"],
        "total": len(keys),
        "stored": stored,
        "remaining": len(keys) - stored,
        "states": states,
    }


class ServiceClosed(RuntimeError):
    """The service is closing or closed: the request cannot be served.

    The HTTP API answers it with 503, which clients retry.
    """


class Service:
    """Thread-safe facade over the async scheduler (used by HTTP and CLI)."""

    def __init__(
        self,
        store_path: Optional[os.PathLike] = None,
        max_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        resume: bool = False,
        local_compute: bool = True,
        lease_ttl_s: Optional[float] = None,
        job_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        events_enabled: bool = True,
        checksums: bool = True,
    ) -> None:
        self.store = ResultStore(store_path, checksums=checksums)
        self._started = time.time()
        #: Telemetry plane: durable event log + fan-out bus + metrics.
        #: Observational only — results are byte-identical either way.
        self.events = EventBus(self.store.event_log, enabled=events_enabled)
        self.metrics = MetricsRegistry()
        self.metrics.add_collect_hook(self._refresh_gauges)
        self.scheduler = Scheduler(
            self.store,
            max_workers=max_workers,
            batch_size=batch_size,
            local_compute=local_compute,
            lease_ttl_s=lease_ttl_s,
            job_timeout_s=job_timeout_s,
            max_attempts=max_attempts,
            events=self.events,
            metrics=self.metrics,
        )
        #: Set once by :meth:`close`, under ``_gate``: every coroutine
        #: :meth:`_call` schedules before it runs ahead of the shutdown.
        self._closing = False
        self._gate = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if resume:
            self.resume()

    # ------------------------------------------------------------- plumbing
    def _call(self, coroutine, timeout: Optional[float] = None):
        """Run ``coroutine`` on the service loop and wait for its result.

        Once :meth:`close` has begun, the coroutine is closed unrun and
        :class:`ServiceClosed` is raised.
        """
        with self._gate:
            if self._closing:
                coroutine.close()
                raise ServiceClosed("the service is closing")
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    # ------------------------------------------------------------------ API
    def submit(
        self,
        campaign: Campaign,
        wait: bool = False,
        timeout: Optional[float] = None,
    ) -> CampaignRun:
        run = self._call(self.scheduler.submit(campaign))
        if wait:
            self.wait(run, timeout=timeout)
        return run

    def wait(self, run: CampaignRun, timeout: Optional[float] = None) -> CampaignRun:
        return self._call(self.scheduler.wait(run), timeout=timeout)

    def resume(self) -> List[CampaignRun]:
        """Re-open, under their own ids, the campaigns an earlier (crashed)
        process left running."""
        return self._call(self.scheduler.resume())

    def cancel(self, campaign_id: int) -> bool:
        run = self.scheduler.runs.get(campaign_id)
        if run is None:
            return False

        async def stop():
            self.scheduler.cancel(run)

        self._call(stop())
        return True

    def progress(self, campaign_id: int) -> Optional[Dict[str, Any]]:
        """Live progress when the campaign runs here, else
        :func:`stored_progress`.

        Both views share the stable core keys ``campaign_id`` / ``name`` /
        ``status`` / ``total`` / ``stored`` / ``remaining`` / ``states`` and
        carry the ``workers`` liveness listing; the live view adds the
        cached/computed/failed split (unknowable after a restart).
        """
        run = self.scheduler.runs.get(campaign_id)
        payload = (
            run.progress() if run is not None
            else stored_progress(self.store, campaign_id)
        )
        if payload is not None:
            payload["workers"] = self.worker_liveness()
        return payload

    # ---------------------------------------------------------- fleet plane
    def lease_next(
        self, worker: str, max_jobs: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Grant the next queued batch to a remote worker as a wire payload
        (``None`` when the queue is empty — the worker polls again)."""

        async def grant():
            return self.scheduler.lease_next(worker, max_jobs=max_jobs)

        lease = self._call(grant())
        if lease is None:
            return None
        return {
            "lease_id": lease.id,
            "ttl": self.scheduler.lease_ttl_s,
            "jobs": [job.to_wire() for job in lease.jobs],
        }

    def heartbeat(self, lease_id: int) -> Optional[float]:
        """Extend a live lease's TTL; ``None`` when the lease is gone."""

        async def beat():
            return self.scheduler.heartbeat(lease_id)

        return self._call(beat())

    def complete_lease(
        self, lease_id: int, outcomes: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Settle a worker's posted outcomes (idempotent, loss-proof)."""

        async def settle():
            return self.scheduler.complete_lease(lease_id, outcomes)

        return self._call(settle())

    def worker_liveness(self) -> List[Dict[str, Any]]:
        """Store-backed per-holder statistics plus *live* liveness: a
        remote worker is alive while it holds an unexpired lease in this
        scheduler (heartbeats keep extending it), a local slot while it
        holds any lease."""

        async def snap() -> Dict[str, Any]:
            return {
                lease.worker: lease for lease in self.scheduler.leases.values()
            }

        active = self._call(snap())
        now = self.scheduler.clock()
        rows = self.store.workers()
        for row in rows:
            lease = active.get(row["worker"])
            row["alive"] = lease is not None and (lease.local or lease.expires > now)
            row["lease_expires"] = None if lease is None else lease.expires
        return rows

    # ------------------------------------------------------------- telemetry
    def _refresh_gauges(self, registry: MetricsRegistry) -> None:
        """Render-time collect hook: live-state gauges and derived rates."""
        uptime = max(time.time() - self._started, 1e-9)
        registry.gauge(
            "repro_uptime_seconds", "seconds since this service started"
        ).set(uptime)
        registry.gauge(
            "repro_queue_depth", "batches waiting in the scheduler queue"
        ).set(float(self.scheduler._queue.qsize()))
        registry.gauge(
            "repro_leases_active", "live fleet leases"
        ).set(float(len(self.scheduler.leases)))
        registry.gauge(
            "repro_campaigns_live", "campaigns resident in this scheduler"
        ).set(float(len(self.scheduler.runs)))
        registry.gauge(
            "repro_events_published_total", "events appended to the log"
        ).set(
            float(self.store.event_log.count()) if self.events.enabled else 0.0
        )
        completed = registry.counter("repro_jobs_completed_total")
        jobs_rate = registry.gauge(
            "repro_jobs_per_second", "completed jobs per second, by plane"
        )
        for plane in ("local", "fleet", "store"):
            jobs_rate.set(
                completed.sum_where(plane=plane) / uptime, plane=plane
            )
        accesses = registry.counter("repro_accesses_total")
        acc_rate = registry.gauge(
            "repro_accesses_per_second",
            "trace accesses replayed per second, by workload",
        )
        for labels, value in accesses.items():
            workload = labels.get("workload")
            if workload:
                acc_rate.set(value / uptime, workload=workload)

    def metrics_snapshot(self, format: str = "text") -> Any:
        """The ``GET /metrics`` payload (gauges refreshed at call time)."""
        if format == "json":
            return self.metrics.render_json()
        return self.metrics.render_text()

    def results(self, run: CampaignRun) -> List[Dict[str, object]]:
        """Merged rows in job order, with the spec's finalize hook applied —
        so machine-readable rows carry the same columns as the rendered
        table (e.g. fig10's ``fraction_of_peak``)."""
        return run.campaign.finalize_rows(self.store.merged_rows(run.id))

    def render(self, run: CampaignRun) -> str:
        """The campaign's table, bit-identical to the experiment module CLI."""
        return run.campaign.render(self.store.merged_rows(run.id))

    def drain(self, deadline_s: float = 30.0) -> Dict[str, Any]:
        """Graceful drain (the serve SIGTERM path): stop granting leases,
        let live leases (local and remote) settle under ``deadline_s``,
        then checkpoint the store's WAL so the file is self-contained on
        exit.  Call :meth:`close` afterwards."""
        report = self._call(
            self.scheduler.drain(deadline_s), timeout=deadline_s + 10
        )
        report["checkpoint"] = self.store.checkpoint()
        return report

    def close(self) -> None:
        """Stop the scheduler and its loop, then close the store's
        connections.  Requests made from here on raise
        :class:`ServiceClosed`; a second call does nothing."""
        with self._gate:
            if self._closing:
                return
            self._closing = True
        try:
            asyncio.run_coroutine_threadsafe(self.scheduler.close(), self._loop).result(30)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()
            self.store.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
