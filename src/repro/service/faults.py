"""Deterministic fault injection for the distributed execution plane.

A :class:`FaultPlan` is a seeded, serializable schedule of failures injected
at *named sites* in the scheduler, worker, event bus and HTTP transport.
Call sites invoke :func:`fire` with their site name (and an optional
context string such as a job key or worker id); when no plan is installed
the call is a single ``None`` check, so production paths pay nothing.

Faults trigger by occurrence count: ``Fault(site="worker.job",
action="raise", after=3)`` fires on the third matching hit of that site.
Because the hit counters advance with the (deterministic) order of site
visits and every injected delay draws its jitter from a
:class:`~repro.common.rng.DeterministicRNG` seeded by the plan, the same
plan against the same campaign produces the same failure schedule — which
is what lets the chaos suite (``tests/test_faults.py``) and
``benchmarks/chaos_battery.py`` assert exact recovery invariants instead of
statistical ones.

Actions:

* ``raise``      — raise :class:`InjectedFault` at the site.
* ``kill``       — simulate worker death: ``os._exit`` when the plan is
  ``hard`` (subprocess workers, CI chaos-smoke), else raise
  :class:`WorkerKilled` (thread workers in tests abandon the lease without
  posting results — indistinguishable from a crash to the server).
* ``delay``      — sleep ``delay`` seconds, jittered by the plan's RNG.
* ``drop``       — returned as a directive; the site skips its side effect
  (e.g. the worker never sends its results post).
* ``duplicate``  — returned as a directive; the site repeats its side
  effect (e.g. the worker posts the same results twice).
* ``expire``     — returned as a directive; the lease sweeper treats the
  lease as already past its TTL.

Named sites currently wired: ``worker.lease``, ``worker.job``,
``worker.post_results`` (worker loop), ``scheduler.sweep``,
``scheduler.store_result`` (scheduler),
``events.notify`` (event bus — fires *after* the durable append, on the
subscriber wakeup only, so drop/duplicate/delay there can never corrupt
the log or a resumed SSE stream), and the HTTP transport pair
``transport.connect`` / ``transport.read``
(:mod:`repro.service.transport` — a ``drop`` at ``transport.connect``
becomes a refused connection before the request is sent; a ``drop`` at
``transport.read`` becomes a truncated body after the status line, so
chaos tests can prove both legs retry).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.rng import DeterministicRNG


class InjectedFault(RuntimeError):
    """Raised by a ``raise`` fault: a synthetic job/infrastructure failure."""


class WorkerKilled(BaseException):
    """Raised by a soft ``kill`` fault.

    Derives from ``BaseException`` so ordinary per-job ``except Exception``
    isolation cannot swallow it: a killed worker stops dead mid-batch,
    exactly like a process that took a SIGKILL.
    """


#: Actions returned to the call site as directives instead of acting here.
DIRECTIVE_ACTIONS = ("drop", "duplicate", "expire")

#: Every action a fault may declare.
ALL_ACTIONS = ("raise", "kill", "delay") + DIRECTIVE_ACTIONS


@dataclass
class Fault:
    """One scheduled failure.

    Attributes:
        site: Named injection site this fault watches.
        action: What happens when it triggers (see module docstring).
        after: Trigger on the Nth matching hit (1-based).
        count: How many consecutive matching hits trigger (default 1;
            ``count=0`` means every hit from ``after`` on).
        delay: Sleep length for ``action="delay"`` (jittered by the plan).
        match: Optional substring the site's context must contain — e.g.
            a worker id, so one plan can kill worker ``w1`` specifically.
    """

    site: str
    action: str
    after: int = 1
    count: int = 1
    delay: float = 0.0
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ALL_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; valid: {ALL_ACTIONS}"
            )
        if self.after < 1:
            raise ValueError("fault 'after' is 1-based and must be >= 1")


@dataclass
class FaultPlan:
    """A seeded, serializable set of :class:`Fault`\\ s plus hit counters."""

    faults: List[Fault] = field(default_factory=list)
    seed: int = 0
    #: ``True`` in real fleet processes: ``kill`` becomes ``os._exit``.
    hard: bool = False

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: (fault index) -> how many matching hits it has seen.
        self._hits: Dict[int, int] = {}
        self._rng = DeterministicRNG(self.seed)
        #: Log of triggered faults, for test assertions and the chaos
        #: battery's JSON artifact.
        self.fired: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ evaluation
    def fire(self, site: str, context: str = "") -> Optional[str]:
        """Record a hit of ``site`` and trigger any matching fault.

        Returns a directive string for directive actions, ``None``
        otherwise.  ``raise``/``kill``/``delay`` act right here.
        """
        triggered: Optional[Fault] = None
        with self._lock:
            for index, fault in enumerate(self.faults):
                if fault.site != site:
                    continue
                if fault.match is not None and fault.match not in context:
                    continue
                hits = self._hits.get(index, 0) + 1
                self._hits[index] = hits
                window = hits - fault.after
                if window < 0 or (fault.count and window >= fault.count):
                    continue
                triggered = fault
                self.fired.append({
                    "site": site, "context": context,
                    "action": fault.action, "hit": hits,
                })
                break
        if triggered is None:
            return None
        if triggered.action == "raise":
            raise InjectedFault(f"injected fault at {site} ({context})")
        if triggered.action == "kill":
            if self.hard:
                os._exit(17)
            raise WorkerKilled(f"injected kill at {site} ({context})")
        if triggered.action == "delay":
            with self._lock:
                jitter = 0.5 + 0.5 * self._rng.random()
            time.sleep(triggered.delay * jitter)
            return None
        return triggered.action  # drop / duplicate / expire

    # --------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=[Fault(**entry) for entry in data.get("faults", ())],
            seed=int(data.get("seed", 0)),
            hard=bool(data.get("hard", False)),
        )

    @classmethod
    def load(cls, path: "os.PathLike[str] | str") -> "FaultPlan":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ------------------------------------------------------------- global plumbing
#: The process-active plan.  ``fire()`` is a no-op (one ``is None`` check)
#: while this is unset, so injection sites cost nothing in production.
_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-active fault plan."""
    global _ACTIVE
    _ACTIVE = plan


def fire(site: str, context: str = "") -> Optional[str]:
    """Hit a named injection site against the active plan (if any)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(site, context)
