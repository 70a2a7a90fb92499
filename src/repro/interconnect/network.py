"""Interconnect traffic accounting.

The :class:`TrafficAccountant` accumulates byte volumes — total, per message
category, and across the bisection — for the bandwidth overhead results
(Figure 11 and the Section 5.4 pin-bandwidth discussion).  Message latency
for the timing model lives in :mod:`repro.node.latency`.

A traffic-accounted replay does not count the base system's messages one
by one: it adds the trace's count table
(:func:`~repro.coherence.protocol.trace_traffic`, one classification pass
per trace into a :func:`count_table`) with
:meth:`TrafficAccountant.add_counts`, takes back the messages of each
coherent read TSE served with :meth:`TrafficAccountant.retract`, and
counts TSE's own messages with :meth:`TrafficAccountant.emit` /
:meth:`~TrafficAccountant.emit_addresses` at their sink sites.

Count tables are flat lists indexed ``(kind * n + src) * n + dst`` for an
``n``-node system; only this module writes that layout out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.coherence.messages import (
    ADDRESS_STREAM,
    MESSAGE_TYPES,
    PAYLOAD_BYTES,
    STREAM_ADDRESS_BYTES,
)
from repro.common.config import InterconnectConfig
from repro.common.types import NodeId
from repro.interconnect.torus import TorusTopology


def count_table(num_nodes: int) -> Tuple[List[int], Callable[[int, NodeId, NodeId], None]]:
    """An empty message count table for ``num_nodes`` nodes, and its sink.

    ``sink(kind, src, dst)`` counts one message into the table, at the
    index :meth:`TrafficAccountant.emit` would use on a torus of the same
    node count; :meth:`TrafficAccountant.add_counts` adds a filled table.
    """
    n = num_nodes
    counts = [0] * (len(MESSAGE_TYPES) * n * n)

    def sink(kind: int, src: NodeId, dst: NodeId) -> None:
        counts[(kind * n + src) * n + dst] += 1

    return counts, sink


class TrafficAccountant:
    """Counts interconnect messages and folds them into byte volumes.

    Figure 11 reports the *overhead* bandwidth: traffic added by TSE beyond
    the baseline system.  Correctly streamed data blocks replace baseline
    coherent-read fills one-for-one, so they are not overhead; discarded
    (erroneously streamed) blocks, streamed address packets, stream requests
    and CMOB pointer updates are.

    Emitters pass small-int message kinds from
    :mod:`repro.coherence.messages` to :meth:`emit` (and ADDRESS_STREAM
    packets to :meth:`emit_addresses`); each call is one increment in a
    flat count table, with no message object and no routing query.  A
    whole trace's baseline counts arrive in one :meth:`add_counts`.
    :meth:`snapshot` folds counts x sizes once: node-local messages are
    dropped and bisection bytes come from a per-pair table built once from
    the torus.

    Counts accumulate from construction to :meth:`snapshot`.  A simulator's
    warm-up reset restarts its TSE counters but not this accountant, so the
    traffic volumes cover the whole trace, warm-up window included.
    """

    def __init__(self, config: InterconnectConfig) -> None:
        self.config = config
        topology = TorusTopology.from_config(config)
        n = topology.num_nodes
        self._num_nodes = n
        #: Message counts, flat-indexed ``(kind * n + src) * n + dst``.
        self._counts = [0] * (len(MESSAGE_TYPES) * n * n)
        #: Addresses carried by ADDRESS_STREAM messages, per ``src * n + dst``.
        self._addresses = [0] * (n * n)
        #: ``src * n + dst`` indices of the node pairs whose messages travel
        #: the network, and of those whose route crosses the bisection.
        self._remote_pairs = [
            src * n + dst for src in range(n) for dst in range(n) if src != dst
        ]
        self._crossing_pairs = [
            src * n + dst for src in range(n) for dst in range(n)
            if topology.crosses_bisection(src, dst)
        ]

    def emit(self, kind: int, src: NodeId, dst: NodeId) -> None:
        """Count one message of ``kind`` from ``src`` to ``dst``."""
        n = self._num_nodes
        self._counts[(kind * n + src) * n + dst] += 1

    def retract(self, kind: int, src: NodeId, dst: NodeId) -> None:
        """Take back one counted message of ``kind`` from ``src`` to ``dst``."""
        n = self._num_nodes
        self._counts[(kind * n + src) * n + dst] -= 1

    def emit_addresses(self, src: NodeId, dst: NodeId, count: int) -> None:
        """Count one ADDRESS_STREAM message carrying ``count`` addresses."""
        n = self._num_nodes
        self._counts[(ADDRESS_STREAM * n + src) * n + dst] += 1
        self._addresses[src * n + dst] += count

    def add_counts(self, counts: List[int], num_nodes: int) -> None:
        """Add a :func:`count_table` laid out for ``num_nodes`` nodes.

        Each message lands where :meth:`emit` would have counted it, also
        when the torus has another node count.
        """
        n = self._num_nodes
        table = self._counts
        for index, count in enumerate(counts):
            if count:
                pair, dst = divmod(index, num_nodes)
                kind, src = divmod(pair, num_nodes)
                table[(kind * n + src) * n + dst] += count

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of traffic volumes for the experiment harness.

        Baseline and overhead totals, their bisection shares, the overhead
        ratio, and ``overhead.<type>_bytes`` for each overhead type that
        sent at least one message between distinct nodes.
        """
        pairs = self._num_nodes ** 2
        header = self.config.header_bytes
        remote = self._remote_pairs
        crossing = self._crossing_pairs
        addresses = self._addresses
        totals = {False: [0, 0], True: [0, 0]}  # is overhead -> [total, bisection]
        by_type: Dict[str, float] = {}
        for kind, msg_type in enumerate(MESSAGE_TYPES):
            row = self._counts[kind * pairs:(kind + 1) * pairs]
            size = header + PAYLOAD_BYTES[kind]
            volume = size * sum(row[pair] for pair in remote)
            bisection = size * sum(row[pair] for pair in crossing)
            if kind == ADDRESS_STREAM:
                volume += STREAM_ADDRESS_BYTES * sum(addresses[pair] for pair in remote)
                bisection += STREAM_ADDRESS_BYTES * sum(
                    addresses[pair] for pair in crossing
                )
            target = totals[msg_type.is_tse_overhead]
            target[0] += volume
            target[1] += bisection
            if msg_type.is_tse_overhead and volume:
                by_type[f"overhead.{msg_type.value}_bytes"] = float(volume)
        baseline_total, baseline_bisection = totals[False]
        overhead_total, overhead_bisection = totals[True]
        return {
            "baseline.total_bytes": float(baseline_total),
            "baseline.bisection_bytes": float(baseline_bisection),
            "overhead.total_bytes": float(overhead_total),
            "overhead.bisection_bytes": float(overhead_bisection),
            "overhead.ratio": overhead_total / baseline_total if baseline_total else 0.0,
            **by_type,
        }
