"""Durable, replayable campaign telemetry: event log, fan-out bus, SSE.

Every scheduler/store state transition publishes a typed event into an
append-only sqlite table (``events``) with a **per-campaign monotone
sequence number**, through an in-process :class:`EventBus`.  The design
invariant that makes the whole plane loss-proof:

* the *log* is the only source of truth — subscribers never receive event
  payloads directly.  A bus notification is a pure **wakeup token**; every
  consumer (the SSE endpoint, ``status --follow``) reads actual events
  from its own log cursor.  A dropped, duplicated, or delayed notification
  (the ``events.notify`` fault site) therefore delays a wakeup by at most
  one poll interval and can never lose, duplicate, or reorder a streamed
  event — the reconnect/fault suite in ``tests/test_events.py`` locks this
  in.
* ``GET /campaigns/<id>/events`` resumes from the ``Last-Event-ID`` header
  (or ``?after=``): a client that reconnects mid-campaign replays exactly
  the events it missed and then goes live.

Events are **observational only**.  Nothing here participates in any
determinism key, and results are byte-identical with the plane enabled or
disabled (``Service(events_enabled=False)``); the chaos battery runs with events
on to prove it.  The remote-worker plane never posts events itself —
fleet activity (leases, heartbeats, results posts) is turned into events
server-side, so a worker crash can never half-write the log.

Timestamps here are wall-clock on purpose: this is the service/telemetry
plane, which RL003 deliberately exempts from the determinism rules.
"""

from __future__ import annotations

import json
import queue
import sqlite3
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.sqlitedb import ConnectionPool, write

# --------------------------------------------------------------- event types
#: Job lifecycle (per sweep point, within one campaign's stream).
JOB_QUEUED = "job.queued"
JOB_CACHED = "job.cached"
JOB_LEASED = "job.leased"
JOB_STARTED = "job.started"
JOB_COMPLETED = "job.completed"
JOB_RETRIED = "job.retried"
JOB_QUARANTINED = "job.quarantined"
#: Fleet lease lifecycle (attached to the campaign whose batch is leased).
LEASE_GRANTED = "lease.granted"
LEASE_HEARTBEAT = "lease.heartbeat"
LEASE_EXPIRED = "lease.expired"
LEASE_DONE = "lease.done"
#: Worker lifecycle (first sight / missed TTL, attached like leases).
WORKER_REGISTERED = "worker.registered"
WORKER_DEAD = "worker.dead"
#: Campaign lifecycle.
CAMPAIGN_SUBMITTED = "campaign.submitted"
CAMPAIGN_FINISHED = "campaign.finished"

#: Every event type, in lifecycle order (README's event-type table and the
#: CLI follower validate against this).
EVENT_TYPES: Tuple[str, ...] = (
    CAMPAIGN_SUBMITTED,
    JOB_QUEUED,
    JOB_CACHED,
    JOB_LEASED,
    JOB_STARTED,
    JOB_COMPLETED,
    JOB_RETRIED,
    JOB_QUARANTINED,
    LEASE_GRANTED,
    LEASE_HEARTBEAT,
    LEASE_DONE,
    LEASE_EXPIRED,
    WORKER_REGISTERED,
    WORKER_DEAD,
    CAMPAIGN_FINISHED,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    campaign_id INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    type        TEXT NOT NULL,
    data_json   TEXT NOT NULL,
    created     REAL NOT NULL,
    PRIMARY KEY (campaign_id, seq)
);
"""


@dataclass(frozen=True)
class Event:
    """One appended telemetry event (immutable once in the log)."""

    campaign_id: int
    seq: int
    type: str
    data: Dict[str, Any]
    created: float

    def to_sse(self) -> str:
        """The W3C server-sent-events frame for this event.

        The ``id:`` field is the per-campaign sequence number — exactly
        what a reconnecting client echoes back as ``Last-Event-ID``.
        ``json.dumps`` never emits newlines, so one ``data:`` line always
        suffices.
        """
        payload = json.dumps(self.data, sort_keys=True)
        return f"id: {self.seq}\nevent: {self.type}\ndata: {payload}\n\n"


class EventLog:
    """Append-only event storage sharing the service's sqlite file.

    Owns the ``events`` DDL (the pattern every table in the shared file
    follows: exactly one owner class), instantiated from
    ``ResultStore.__init__``, which passes its connection ``pool`` so the
    store and its log borrow from one :class:`ConnectionPool`; a log
    opened on a bare path gets a pool of its own, whose connections close
    when the log is dropped.  Sequence numbers are allocated inside the
    same immediate transaction as the insert, so they are gapless and
    strictly monotone per campaign no matter how many threads publish.
    """

    def __init__(
        self, path: "Path | str", pool: Optional[ConnectionPool] = None,
    ) -> None:
        self.path = Path(path)
        self._pool = (
            pool if pool is not None
            else ConnectionPool(self.path, row_factory=sqlite3.Row)
        )
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    def _connect(self) -> ContextManager[sqlite3.Connection]:
        return self._pool.connection()

    # ------------------------------------------------------------- appending
    def append_many(
        self, campaign_id: int, entries: Sequence[Tuple[str, Dict[str, Any]]],
    ) -> List[Event]:
        """Append a batch of events in one transaction (one seq range)."""
        if not entries:
            return []
        return write(self._connect, lambda conn: self.insert(conn, campaign_id, entries))

    def insert(
        self, conn: sqlite3.Connection, campaign_id: int,
        entries: Sequence[Tuple[str, Dict[str, Any]]],
    ) -> List[Event]:
        """Append ``entries`` in the caller's open transaction on the file."""
        now = time.time()
        base = conn.execute(
            "SELECT COALESCE(MAX(seq), 0) AS top FROM events "
            "WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()["top"]
        events = [
            Event(campaign_id, base + offset + 1, type, data, now)
            for offset, (type, data) in enumerate(entries)
        ]
        conn.executemany(
            "INSERT INTO events (campaign_id, seq, type, data_json, "
            "created) VALUES (?, ?, ?, ?, ?)",
            [
                (event.campaign_id, event.seq, event.type,
                 json.dumps(event.data, sort_keys=True), event.created)
                for event in events
            ],
        )
        return events

    # --------------------------------------------------------------- reading
    def after(
        self, campaign_id: int, seq: int, limit: int = 500,
    ) -> List[Event]:
        """Events with sequence number strictly greater than ``seq``."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT seq, type, data_json, created FROM events "
                "WHERE campaign_id = ? AND seq > ? ORDER BY seq LIMIT ?",
                (campaign_id, seq, limit),
            ).fetchall()
        return [
            Event(
                campaign_id, row["seq"], row["type"],
                json.loads(row["data_json"]), row["created"],
            )
            for row in rows
        ]

    def count(self, campaign_id: Optional[int] = None) -> int:
        where = "" if campaign_id is None else "WHERE campaign_id = ?"
        params = () if campaign_id is None else (campaign_id,)
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT COUNT(*) AS n FROM events {where}", params
            ).fetchone()
        return int(row["n"])


class EventBus:
    """Publish side + in-process fan-out over one :class:`EventLog`.

    Subscriptions are *wakeup channels*: ``subscribe`` hands back a
    one-slot queue that receives an opaque token whenever the campaign's
    log grew.  Consumers drain the log from their own cursor on every
    wakeup (and on a poll-interval timeout), which is what makes the
    ``events.notify`` fault site — dropped, duplicated, or delayed
    notifications — harmless by construction.
    """

    def __init__(
        self, log: Optional[EventLog] = None, enabled: bool = True,
    ) -> None:
        self.log = log
        self.enabled = enabled and log is not None
        self._lock = threading.Lock()
        self._subscribers: Dict[int, List["queue.Queue[bool]"]] = {}

    # ------------------------------------------------------------ publishing
    def publish(
        self, campaign_id: int, type: str, data: Dict[str, Any],
    ) -> Optional[Event]:
        events = self.publish_many(campaign_id, [(type, data)])
        return events[0] if events else None

    def publish_many(
        self, campaign_id: int, entries: Sequence[Tuple[str, Dict[str, Any]]],
    ) -> List[Event]:
        """Append ``entries`` durably, then notify subscribers.

        The append always happens first and is never subject to fault
        directives — only the *notification* is (``events.notify``): a
        ``drop`` skips the wakeup (the poll fallback covers it), a
        ``duplicate`` wakes twice (consumers drain from their cursor, so
        a double wakeup is one empty drain), and a ``delay`` stalls the
        wakeup without touching the log.
        """
        if not self.enabled or self.log is None or not entries:
            return []
        events = self.log.append_many(campaign_id, entries)
        self.notify(campaign_id, entries[0][0])
        return events

    def notify(self, campaign_id: int, type: str) -> None:
        """Wake the campaign's subscribers after ``type`` was appended,
        through the ``events.notify`` fault site."""
        from repro.service import faults

        directive = faults.fire("events.notify", context=f"{campaign_id}:{type}")
        if directive == "drop":
            return
        for _ in range(2 if directive == "duplicate" else 1):
            self._wake(campaign_id)

    def _wake(self, campaign_id: int) -> None:
        with self._lock:
            subscribers = list(self._subscribers.get(campaign_id, ()))
        for subscriber in subscribers:
            try:
                subscriber.put_nowait(True)
            except queue.Full:
                pass  # a wakeup is already pending; one drain covers both

    # ----------------------------------------------------------- subscribing
    def subscribe(self, campaign_id: int) -> "queue.Queue[bool]":
        subscriber: "queue.Queue[bool]" = queue.Queue(maxsize=1)
        with self._lock:
            self._subscribers.setdefault(campaign_id, []).append(subscriber)
        return subscriber

    def unsubscribe(
        self, campaign_id: int, subscriber: "queue.Queue[bool]",
    ) -> None:
        with self._lock:
            entries = self._subscribers.get(campaign_id)
            if entries and subscriber in entries:
                entries.remove(subscriber)
            if not entries and campaign_id in self._subscribers:
                self._subscribers.pop(campaign_id, None)


# ----------------------------------------------------------------- SSE client
def parse_sse(lines: Iterator[bytes]) -> Iterator[Dict[str, Any]]:
    """Parse a server-sent-events byte stream into event dicts.

    Yields ``{"id": int | None, "event": str, "data": Any}`` per dispatched
    frame; ``data`` is JSON-decoded when possible (ours always is).
    Comment lines (``: keepalive``) are skipped per the SSE spec.
    """
    event_id: Optional[int] = None
    event_type = "message"
    data_lines: List[str] = []
    for raw in lines:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if line.startswith(":"):
            continue
        if line == "":
            if data_lines:
                data_text = "\n".join(data_lines)
                try:
                    data: Any = json.loads(data_text)
                except json.JSONDecodeError:
                    data = data_text
                yield {"id": event_id, "event": event_type, "data": data}
            event_type = "message"
            data_lines = []
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "id":
            try:
                event_id = int(value)
            except ValueError:
                pass
        elif field == "event":
            event_type = value
        elif field == "data":
            data_lines.append(value)


def sse_events(
    url: str,
    last_event_id: Optional[int] = None,
    http_timeout: float = 120.0,
) -> Iterator[Dict[str, Any]]:
    """One SSE connection to ``url``, yielding parsed events.

    Sends ``Last-Event-ID`` when resuming; the generator ends when the
    server closes the stream (terminal campaign) or the socket drops —
    callers that want lose-nothing semantics reconnect with the last id
    they saw (:func:`follow_campaign` does exactly that).
    """
    headers = {"Accept": "text/event-stream"}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=http_timeout) as response:
        yield from parse_sse(iter(response.readline, b""))


def follow_campaign(
    base_url: str,
    campaign_id: int,
    last_event_id: int = 0,
    http_timeout: float = 120.0,
    max_reconnects: int = 30,
) -> Iterator[Dict[str, Any]]:
    """Tail one campaign's stream to its terminal event, reconnecting with
    ``Last-Event-ID`` on any connection loss (so nothing is ever missed
    or repeated).  Ends after ``campaign.finished`` arrives."""
    url = f"{base_url.rstrip('/')}/campaigns/{campaign_id}/events"
    cursor = last_event_id
    reconnects = 0
    while True:
        try:
            for event in sse_events(
                url, last_event_id=cursor, http_timeout=http_timeout
            ):
                if event["id"] is not None:
                    cursor = event["id"]
                yield event
                if event["event"] == CAMPAIGN_FINISHED:
                    return
            return  # clean close without a terminal event: stored campaign
        except (OSError, ConnectionError):
            reconnects += 1
            if reconnects >= max_reconnects:
                raise
            time.sleep(min(2.0, 0.1 * reconnects))
