"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``<layer>.<step>``, the layer being the ``repro``
package whose public function the step calls), a start, an end, its parent
span and the id of the operation it belongs to.  An operation records a few
dozen spans, so they are always kept in memory (the untraced run reads its
step durations from them too); the traced run writes them out with
:meth:`Tracer.dump` once the run has ended.  Each span also records the
host's mean speed while it ran, so its time can be reported at reference
speed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from hostspeed import HostSpeed


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: A step the traced run adds that the user's operation does not
    #: contain (for example the plain replay that ``interconnect.account_s``
    #: subtracts); ``op_s`` excludes these.
    harness: bool = False
    #: Mean host speed over the span (see hostspeed.py).
    factor: float = 1.0

    @property
    def duration(self) -> float:
        """Wall clock."""
        return self.end - self.start

    @property
    def scaled(self) -> float:
        """Time at reference host speed, the figure the benchmark reports."""
        return self.duration * self.factor


class Tracer:
    def __init__(self, speed: Optional[HostSpeed] = None) -> None:
        self.speed = speed
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: Operation id stamped on new spans; set-up spans carry "setup".
        self.op = "setup"

    @contextmanager
    def span(self, name: str, harness: bool = False) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter(),
                    harness=harness)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.speed is not None:
                span.factor = self.speed.factor(span.start, span.end)
            self._stack.pop()

    def of_op(self, op: str) -> List[Span]:
        return [span for span in self.spans if span.op == op]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]) + "\n")


def total(spans: List[Span], name: str) -> float:
    """Summed time, at reference host speed, of every span called ``name``."""
    return sum(span.scaled for span in spans if span.name == name)
