"""Simulation-as-a-service: campaigns, persistent results, async scheduling.

The experiment harness (PR 1–3) made single sweeps fast; this subsystem
makes them *durable and submittable*.  Four parts:

* :mod:`repro.service.spec` — declarative :class:`Campaign` specifications
  (workloads x config grid x seeds x trace sizes) that compile to a
  deterministic job list, each job keyed by the same determinism key the
  in-process result cache uses (:func:`repro.experiments.cache.determinism_key`);
* :mod:`repro.service.store` — a persistent ``sqlite3`` result store, so
  completed points survive restarts and resubmitted campaigns recompute
  nothing;
* :mod:`repro.service.scheduler` — an ``asyncio`` scheduler with priority
  queues, per-trace job batching, progress, cancellation, crash-resume
  from the store (a crashed campaign re-opens under its own id), per-job
  retry/backoff with poison-job quarantine, and
  one execution path: local slots (running batches on the process pool)
  and remote workers take batches as leases through the same grant and
  settle through the same ``complete_lease`` (TTL leases + expiry sweeper
  for the remote ones);
* :mod:`repro.service.worker` — the fleet side: ``python -m repro.service
  work --url ...`` lease-protocol workers that can be killed at any
  instruction without losing completed results;
* :mod:`repro.service.faults` — deterministic fault injection
  (seeded :class:`~repro.service.faults.FaultPlan` schedules fired at
  named sites) driving the chaos suite and ``benchmarks/chaos_battery.py``;
* :mod:`repro.service.events` / :mod:`repro.service.metrics` — the
  telemetry plane (PR 9): a durable per-campaign event log with SSE
  streaming and ``Last-Event-ID`` resume (``status --follow`` tails it),
  and a ``GET /metrics`` registry.  Observational only — results stay
  byte-identical with events on or off;
* :mod:`repro.service.transport` — the resilient HTTP client (PR 10)
  every worker and CLI call rides: per-attempt timeouts, deterministic
  seeded retry/backoff distinguishing retryable transport faults from
  terminal HTTP statuses, and a give-up circuit — a server restart
  mid-campaign costs the fleet nothing but the wait;
* :mod:`repro.service.api` / :mod:`repro.service.cli` — a stdlib
  ``http.server`` JSON API and the ``python -m repro.service`` command line
  (``submit`` / ``status`` / ``results`` / ``serve`` / ``work`` /
  ``presets``, plus the durability verbs ``fsck`` / ``backup`` /
  ``restore``).  The store schema is versioned (``PRAGMA user_version``)
  with in-place migrations, per-row SHA-256 payload checksums, and online
  backup via sqlite's backup API; ``serve`` drains gracefully on SIGTERM.

Every paper figure is available as a campaign preset
(:mod:`repro.service.presets`); every table the service prints is
:meth:`Campaign.render` over :meth:`ResultStore.merged_rows`, and the
preset tables are bit-identical to the fig modules' direct CLI output
(locked in by ``tests/test_service.py``).
"""

from repro.service.events import Event, EventBus, EventLog
from repro.service.faults import Fault, FaultPlan
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import CampaignRun, Scheduler
from repro.service.service import Service
from repro.service.spec import Campaign, Job
from repro.service.store import ResultStore, default_store_path
from repro.service.transport import HttpTransport, StatusError, TransportError
from repro.service.worker import Worker

__all__ = [
    "Campaign",
    "Job",
    "ResultStore",
    "default_store_path",
    "CampaignRun",
    "Scheduler",
    "Service",
    "Worker",
    "Fault",
    "FaultPlan",
    "Event",
    "EventBus",
    "EventLog",
    "MetricsRegistry",
    "HttpTransport",
    "StatusError",
    "TransportError",
]
