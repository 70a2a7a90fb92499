"""Stdlib HTTP/JSON front-end for the simulation service.

Routes (all JSON):

* ``GET  /healthz``                  — liveness probe.
* ``GET  /presets``                  — available campaign presets.
* ``GET  /campaigns``                — every stored campaign with progress.
* ``GET  /campaigns/<id>``           — one campaign's progress.
* ``POST /campaigns``                — submit; body is either
  ``{"preset": "fig12", ...overrides}`` or ``{"campaign": {...spec...}}``.
  Optional ``"wait": true`` blocks until done and includes the finalized
  rows and the table ``Campaign.render`` makes of them; ``"workloads"``,
  ``"target_accesses"``, ``"seed"``, ``"priority"`` override preset
  defaults.
* ``POST /campaigns/<id>/cancel``    — drop the campaign's queued jobs.
* ``GET  /jobs/<id>``                — one job by short id (status + rows).
* ``GET  /results?experiment=&workload=&limit=`` — filterable results.

Telemetry routes (PR 9, observational only):

* ``GET  /campaigns/<id>/events``    — server-sent events stream of the
  campaign's telemetry.  Resumes from the ``Last-Event-ID`` header (or
  ``?after=SEQ``) so a reconnect replays exactly the missed events;
  ``?follow=0`` replays the log and closes without tailing.  The stream
  ends itself after ``campaign.finished``.
* ``GET  /metrics``                  — Prometheus text exposition
  (``?format=json`` for the same registry as JSON).

Fleet routes (the remote-worker lease protocol, driven by
``python -m repro.service work``):

* ``POST /leases``                   — ``{"worker": id, "max_jobs": n}``;
  leases the next queued batch.  Replies ``{"lease_id", "ttl", "jobs"}``
  or ``{"lease_id": null}`` when the queue is empty (poll again).
* ``POST /leases/<id>/heartbeat``    — extend the TTL; **410** once the
  lease expired (the worker must abandon the batch — its jobs are
  already requeued).
* ``POST /leases/<id>/results``      — ``{"outcomes": [...]}``; per-job
  results/errors.  Always accepted: outcomes for an expired or unknown
  lease are still written to the store (results are deterministic, so a
  late write is first-write-wins-identical) and flagged ``duplicate``.
* ``GET  /workers``                  — per-worker lease statistics.

Error contract: every non-2xx reply is a JSON body with an ``"error"``
message (plus ``"type"`` for unexpected 500s).  Client mistakes —
malformed JSON, unknown paths/presets, bad specs — are 4xx.  A request
that reaches a service that is closing or closed is 503, which clients
retry.  Unexpected server-side exceptions are 500 with the traceback
logged via the ``repro.service.api`` logger, never leaked to the client
and never a silently dropped socket.

Built on ``http.server.ThreadingHTTPServer``: handler threads block on the
thread-safe :class:`~repro.service.service.Service` facade, so a waiting
submit does not stall other requests.
"""

from __future__ import annotations

import json
import logging
import queue
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service import presets
from repro.service import events as events_module
from repro.service.service import Service, ServiceClosed
from repro.service.spec import Campaign, check_mode

logger = logging.getLogger("repro.service.api")

#: Seconds an SSE tail waits on the hub before it polls the durable log
#: (and sends a keepalive): a dropped or delayed notification delays the
#: stream by at most this long and never loses an event.
EVENTS_POLL_S = 2.0


class _HTTPError(Exception):
    """A deliberate client/contract error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service facade for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: Service) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep test/CI output clean; use an access-logging proxy if needed

    def _reply(self, status: int, payload: Any) -> None:
        # Strict JSON: a non-serializable payload is a server bug and must
        # surface as a logged 500, not be silently stringified by a
        # ``default=`` hook into something a client can't round-trip.
        try:
            body = json.dumps(payload).encode()
        except (TypeError, ValueError):
            logger.exception("unserializable reply payload for %s", self.path)
            status = 500
            body = json.dumps(
                {"error": "internal error: unserializable reply",
                 "type": "TypeError"}
            ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        try:
            body = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return body

    def _dispatch(self, handler) -> None:
        """Run a route handler under the error contract: ``_HTTPError`` is
        the intended 4xx/410 reply; anything else is a logged 500."""
        try:
            handler()
        except _HTTPError as exc:
            self._error(exc.status, str(exc))
        except ServiceClosed as exc:
            self._error(503, str(exc))  # clients retry 503
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; nothing to answer
        except Exception as exc:
            logger.exception("unhandled error serving %s %s",
                             self.command, self.path)
            self._reply(
                500,
                {"error": f"{type(exc).__name__}: {exc}",
                 "type": type(exc).__name__},
            )

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._post)

    def _get(self) -> None:
        service = self.server.service
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        if url.path == "/healthz":
            return self._reply(200, {
                "ok": True,
                "store": str(service.store.path),
                "draining": service.scheduler.draining,
            })
        if url.path == "/presets":
            return self._reply(200, {"presets": list(presets.preset_names())})
        if url.path == "/campaigns":
            return self._reply(200, {"campaigns": service.store.campaigns()})
        if url.path == "/workers":
            return self._reply(200, {"workers": service.worker_liveness()})
        if url.path == "/metrics":
            return self._reply_metrics(service, _first(query, "format"))
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "events":
            return self._stream_events(service, _int_or(-1, parts[1]), query)
        if len(parts) == 2 and parts[0] == "campaigns":
            progress = service.progress(_int_or(-1, parts[1]))
            if progress is None:
                raise _HTTPError(404, f"no campaign {parts[1]}")
            return self._reply(200, progress)
        if len(parts) == 2 and parts[0] == "jobs":
            job = service.store.get_job(parts[1])
            if job is None:
                raise _HTTPError(404, f"no job {parts[1]}")
            return self._reply(200, job)
        if url.path == "/results":
            records = service.store.query_results(
                experiment=_first(query, "experiment"),
                workload=_first(query, "workload"),
                limit=_int_or(1000, _first(query, "limit")),
            )
            return self._reply(200, {"results": records})
        raise _HTTPError(404, f"unknown path {url.path}")

    def _post(self) -> None:
        service = self.server.service
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        body = self._read_body()
        if url.path == "/campaigns":
            return self._post_campaign(service, body)
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel":
            if service.cancel(_int_or(-1, parts[1])):
                return self._reply(200, {"cancelled": True})
            raise _HTTPError(404, f"no live campaign {parts[1]}")
        if url.path == "/leases":
            worker = str(body.get("worker") or "").strip()
            if not worker:
                raise _HTTPError(400, "lease request needs a 'worker' id")
            max_jobs = body.get("max_jobs")
            lease = service.lease_next(
                worker, max_jobs=int(max_jobs) if max_jobs else None
            )
            if lease is None:
                return self._reply(200, {"lease_id": None})
            return self._reply(200, lease)
        if len(parts) == 3 and parts[0] == "leases":
            lease_id = _int_or(-1, parts[1])
            if parts[2] == "heartbeat":
                expires = service.heartbeat(lease_id)
                if expires is None:
                    raise _HTTPError(
                        410, f"lease {lease_id} expired; abandon the batch"
                    )
                return self._reply(200, {"lease_id": lease_id, "expires": expires})
            if parts[2] == "results":
                outcomes = body.get("outcomes")
                if not isinstance(outcomes, list):
                    raise _HTTPError(400, "results post needs 'outcomes' list")
                return self._reply(
                    200, service.complete_lease(lease_id, outcomes)
                )
        raise _HTTPError(404, f"unknown path {url.path}")

    def _post_campaign(self, service: Service, body: Dict[str, Any]) -> None:
        try:
            campaign = _campaign_from_body(body)
            campaign.jobs()  # compile eagerly: bad specs become a 400 here
        except (KeyError, ValueError, TypeError) as exc:
            raise _HTTPError(400, str(exc)) from exc
        wait = bool(body.get("wait"))
        run = service.submit(campaign, wait=wait)
        payload = run.progress()
        if wait:
            payload["rows"] = service.results(run)
            payload["table"] = run.campaign.render(payload["rows"])
        return self._reply(200, payload)

    # ------------------------------------------------------------- telemetry
    def _reply_metrics(self, service: Service, format: Optional[str]) -> None:
        if format == "json":
            return self._reply(200, service.metrics_snapshot("json"))
        body = service.metrics_snapshot("text").encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(
        self, service: Service, campaign_id: int, query: Dict[str, list],
    ) -> None:
        """``GET /campaigns/<id>/events``: replay-then-tail SSE.

        The handler never trusts bus notifications for *content* — every
        frame it writes comes from its own :class:`EventLog` cursor, so
        dropped/duplicated/delayed notifications (the ``events.notify``
        fault site) cost at most one poll interval of latency and can
        never lose or duplicate a frame.  The stream terminates after
        ``campaign.finished`` (or immediately once the log is drained for
        a campaign whose stored status is no longer ``running``), and on
        ``?follow=0`` as soon as the replay is done.
        """
        if service.store.campaign(campaign_id) is None:
            raise _HTTPError(404, f"no campaign {campaign_id}")
        cursor = _int_or(0, self.headers.get("Last-Event-ID"))
        cursor = _int_or(cursor, _first(query, "after"))
        follow = _first(query, "follow") != "0"
        log = service.store.event_log
        bus = service.events
        self.close_connection = True  # no Content-Length: EOF ends the stream
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        subscription = bus.subscribe(campaign_id)
        try:
            while True:
                # The scheduler commits the terminal status and
                # campaign.finished in one transaction, so a drain after a
                # terminal status read holds every event the log will ever
                # carry (none more for a pre-events store or disabled events).
                record = service.store.campaign(campaign_id)
                terminal = record is not None and record["status"] != "running"
                finished = False
                while True:
                    batch = log.after(campaign_id, cursor, limit=500)
                    for event in batch:
                        self.wfile.write(event.to_sse().encode())
                        cursor = event.seq
                        if event.type == events_module.CAMPAIGN_FINISHED:
                            finished = True
                    if len(batch) < 500:
                        break
                self.wfile.flush()
                if finished or terminal or not follow:
                    return
                try:
                    subscription.get(timeout=EVENTS_POLL_S)
                except queue.Empty:
                    # Poll fallback doubles as the keepalive heartbeat.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
        finally:
            bus.unsubscribe(campaign_id, subscription)


def _first(query: Dict[str, list], name: str) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None


def _int_or(default: int, value: Optional[str]) -> int:
    try:
        return int(value) if value is not None else default
    except ValueError:
        return default


def _campaign_from_body(body: Dict[str, Any]) -> Campaign:
    if "campaign" in body:
        return Campaign.from_dict(body["campaign"])
    if "preset" not in body:
        raise ValueError("body needs either 'preset' or 'campaign'")
    check_mode(body)
    return presets.campaign(
        str(body["preset"]),
        workloads=body.get("workloads"),
        target_accesses=body.get("target_accesses"),
        seed=int(body.get("seed", 42)),
        priority=int(body.get("priority", 0)),
    )


def make_server(
    service: Service, host: str = "127.0.0.1", port: int = 8765
) -> ServiceHTTPServer:
    """Bind the JSON API to ``host:port`` (port 0 = ephemeral, for tests)."""
    return ServiceHTTPServer((host, port), service)
