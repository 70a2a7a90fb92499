"""Resilient HTTP transport: retrying stdlib client for workers and the CLI.

Before PR 10 every worker and CLI call was a raw one-shot
``urllib.request.urlopen`` — a server restart or transient connection
reset mid-call killed the caller (only the worker's idle poll loop caught
transport errors).  :class:`HttpTransport` wraps the same stdlib plumbing
with the fleet's retry discipline:

* **per-attempt timeouts** (:data:`TIMEOUT_S` unless the caller passes
  one) so a hung server can't wedge a worker forever;
* **deterministic seeded backoff + jitter** between attempts, reusing
  PR 8's :func:`repro.common.rng.backoff_delay` — the retry schedule of
  any call is a pure function of ``(method, path, attempt)``, so chaos
  runs replay identically;
* a **retry budget** (:data:`RETRIES` unless the caller passes one) that
  distinguishes *retryable* transport faults — connection refused/reset, timeouts,
  mid-body disconnects (``IncompleteRead`` / truncated JSON), and the
  gateway statuses 502/503/504 — from *terminal* ones: any other HTTP
  error status (404 unknown campaign, 400 bad request, 410 lease-gone)
  raises :class:`StatusError` immediately, because retrying cannot
  change the answer;
* a **give-up circuit**: once the budget is spent the transport raises
  :class:`TransportError` so a dead server fails callers cleanly instead
  of hanging them.

Retrying POSTs is safe by protocol design, not by accident: results
posts are first-write-wins idempotent in the store, heartbeats are
read-mostly, and a duplicated lease or campaign POST only produces an
extra lease/record that the TTL sweeper or store dedupe neutralises —
at worst a little duplicate compute, never a wrong or lost row.

Fault sites ``transport.connect`` (a ``drop`` directive becomes an
injected ``ConnectionRefusedError`` before the request leaves) and
``transport.read`` (a ``drop`` becomes a truncated body after the status
line) let the chaos battery prove both legs really ride through.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.common.rng import backoff_delay
from repro.service import faults

#: HTTP statuses worth retrying: the gateway/overload family.  Everything
#: else in 4xx/5xx is terminal — the server answered, and it said no.
RETRYABLE_STATUSES = (502, 503, 504)

#: Default per-attempt timeout in seconds.  ``submit --wait`` blocks
#: server-side until the campaign settles, so the budget covers
#: whole-campaign latency; workers pass a tighter one.
TIMEOUT_S = 600.0

#: Default attempts per call.  Only retryable faults spend them; once they
#: are spent the call raises :class:`TransportError`, so a dead server
#: fails its callers instead of hanging them.
RETRIES = 5


class TransportError(Exception):
    """The retry budget is spent: the peer is unreachable or keeps failing.

    Carries the attempt count and the last underlying error so callers
    (and chaos reports) can say *why* the circuit opened.
    """

    def __init__(self, message: str, attempts: int,
                 last_error: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class StatusError(Exception):
    """Terminal HTTP error status: retrying cannot change the answer.

    ``code`` carries the HTTP status (e.g. ``410`` for a reclaimed lease,
    mapped to ``LeaseGone`` by the worker) and ``body`` the error payload.
    """

    def __init__(self, code: int, message: str, body: str = "") -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code
        self.body = body


class _TruncatedBody(Exception):
    """Internal: the reply body ended before its JSON did (mid-body
    disconnect, or an injected ``transport.read`` drop)."""


def _retryable(exc: BaseException) -> bool:
    """Classify one attempt's failure.  Terminal statuses never reach here
    (they raise :class:`StatusError` straight out of the attempt)."""
    return isinstance(exc, (
        ConnectionError,          # refused / reset / aborted
        TimeoutError,             # socket.timeout is an alias since 3.10
        socket.timeout,
        http.client.HTTPException,  # IncompleteRead, RemoteDisconnected, ...
        urllib.error.URLError,    # wraps OSError reasons (refused, DNS, ...)
        _TruncatedBody,
        OSError,
    ))


class HttpTransport:
    """Retrying JSON-over-HTTP client bound to one service base URL.

    Every worker and CLI call goes through :meth:`request` (or the
    :meth:`get`/:meth:`post` sugar).  One instance is cheap and
    stateless between calls — no pooling, the stdlib opens a fresh
    connection per attempt, which is exactly what riding out a server
    restart needs.
    """

    def __init__(self, base_url: str,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff_base: float = 0.2,
                 backoff_cap: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = TIMEOUT_S if timeout is None else timeout
        self.retries = max(1, RETRIES if retries is None else retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    # ------------------------------------------------------------------ sugar
    def get(self, path: str) -> Dict[str, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("POST", path, payload)

    # ------------------------------------------------------------------- core
    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One logical call: up to ``retries`` attempts with deterministic
        backoff between them.

        Raises :class:`StatusError` on a terminal HTTP status (no retry)
        and :class:`TransportError` once the budget is exhausted.
        """
        url = self.base_url + path
        last: Optional[BaseException] = None
        for attempt in range(1, self.retries + 1):
            try:
                return self._attempt(method, url, payload)
            except StatusError:
                raise
            except BaseException as exc:  # noqa: BLE001 — classified below
                if not _retryable(exc):
                    raise
                last = exc
            if attempt < self.retries:
                time.sleep(backoff_delay(
                    f"{method} {url}", attempt,
                    base=self.backoff_base, cap=self.backoff_cap,
                ))
        raise TransportError(
            f"{method} {url} failed after {self.retries} attempts "
            f"(last error: {type(last).__name__}: {last})",
            attempts=self.retries, last_error=last,
        )

    def _attempt(self, method: str, url: str,
                 payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """One wire attempt.  Fault sites fire here so every injected
        failure flows through the same classification as a real one."""
        if faults.fire("transport.connect", context=f"{method} {url}") == "drop":
            raise ConnectionRefusedError(
                f"injected connection refusal: {method} {url}"
            )
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                if faults.fire("transport.read",
                               context=f"{method} {url}") == "drop":
                    raise _TruncatedBody(
                        f"injected truncated body: {method} {url}"
                    )
                body = reply.read()
        except urllib.error.HTTPError as exc:
            if exc.code in RETRYABLE_STATUSES:
                raise
            detail = ""
            try:
                detail = exc.read().decode("utf-8", "replace")
            except OSError:
                pass
            raise StatusError(exc.code, exc.reason or "error", detail) from exc
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A reply that stops mid-JSON is a mid-body disconnect: the
            # server died after the status line.  Retry it.
            raise _TruncatedBody(f"truncated reply body: {method} {url}") from exc
        return parsed if isinstance(parsed, dict) else {"value": parsed}
