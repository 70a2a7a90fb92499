"""The Temporal Streaming Engine (TSE) — the paper's core contribution.

Components (Section 3 of the paper):

* :mod:`repro.tse.cmob` — the Coherence Miss Order Buffer, a large circular
  buffer in each node's main memory recording the node's coherent-read-miss
  order; it serves packed windows of that order to stream reads.
* :mod:`repro.tse.svb` — the Streamed Value Buffer, a small fully-associative
  buffer holding streamed blocks until the processor consumes them.
* :mod:`repro.tse.stream_queue` — a group of FIFOs holding candidate streams
  with a common head, compared element-by-element to gauge accuracy.
* :mod:`repro.tse.stream_engine` — per-node engine that owns the stream
  queues and the SVB, fetches the agreed window with bounded lookahead, and
  reacts to off-chip misses and invalidations.
* :mod:`repro.tse.engine` — the system layer that drives every event: it
  records the order (CMOB appends and directory CMOB pointers), locates and
  forwards streams, allocates queues, consumes SVB hits, serves refills and
  delivers fetched blocks into the SVBs.
* :mod:`repro.tse.simulator` — functional trace-driven simulation of a whole
  DSM with TSE, producing coverage / discard / traffic statistics.
"""

from repro.tse.cmob import CMOB
from repro.tse.engine import NodeTSE, TemporalStreamingSystem
from repro.tse.simulator import TSESimulator, TSEStats
from repro.tse.stream_engine import StreamEngine
from repro.tse.stream_queue import StreamQueue
from repro.tse.svb import StreamedValueBuffer, SVBEntry

__all__ = [
    "CMOB",
    "StreamedValueBuffer",
    "SVBEntry",
    "StreamQueue",
    "StreamEngine",
    "NodeTSE",
    "TemporalStreamingSystem",
    "TSESimulator",
    "TSEStats",
]
