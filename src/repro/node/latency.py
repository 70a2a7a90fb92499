"""Latency model: converts Table 1 parameters into per-transaction latencies.

The timing simulator does not model individual protocol messages in flight;
instead each miss class is charged an end-to-end latency derived from the
system configuration (hop latencies across the average torus distance,
protocol-controller occupancies, memory access time, cache hit times).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.interconnect.torus import TorusTopology


@dataclass
class LatencyModel:
    """End-to-end latencies, in processor cycles, for each transaction type."""

    system: SystemConfig

    def __post_init__(self) -> None:
        cfg = self.system
        topology = TorusTopology(cfg.interconnect.width, cfg.interconnect.height)
        self._avg_hops = max(topology.average_hop_count(), 1.0)
        self._hop_cycles = cfg.ns_to_cycles(cfg.interconnect.hop_latency_ns)
        self._memory_cycles = cfg.ns_to_cycles(cfg.memory.access_latency_ns)
        self._controller_cycles = cfg.ns_to_cycles(cfg.protocol_controller_occupancy_ns)
        self._l2_hit = cfg.l2.hit_latency

    # ------------------------------------------------------------------ values
    @property
    def remote_memory_cycles(self) -> float:
        """2-hop miss: request to the home node, data from the home's memory."""
        return (
            self._l2_hit
            + 2 * self._avg_hops * self._hop_cycles
            + 2 * self._controller_cycles
            + self._memory_cycles
        )

    @property
    def coherent_read_cycles(self) -> float:
        """3-hop coherent read miss: requester -> home -> owner -> requester.

        Data comes cache-to-cache from the owner, so no memory access is
        charged, but three network traversals and three controller
        occupancies are.
        """
        return (
            self._l2_hit
            + 3 * self._avg_hops * self._hop_cycles
            + 3 * self._controller_cycles
            + self.system.l2.hit_latency
        )

    @property
    def stream_fetch_cycles(self) -> float:
        """Latency to retrieve one streamed block into the SVB.

        The paper observes this is approximately the same as the consumption
        miss latency that triggers the stream lookup (Section 5.6).
        """
        return self.coherent_read_cycles

    @property
    def block_serialization_cycles(self) -> float:
        """Link occupancy per streamed 64-byte block (bandwidth term for bursts)."""
        cfg = self.system.interconnect
        per_node_gbps = cfg.bisection_bandwidth_gbps / max(cfg.num_nodes, 1)
        ns = 64.0 / per_node_gbps  # bytes / (GB/s) == ns
        return self.system.ns_to_cycles(ns)
