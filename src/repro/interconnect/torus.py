"""2D torus topology: hop counts and bisection crossings.

The paper's system is a 4x4 2D torus with 25 ns per-hop latency and 128 GB/s
peak bisection bandwidth (Table 1).  The topology module answers two
questions for every (src, dst) pair: how many hops does the message take, and
does its route cross the bisection (needed for Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import InterconnectConfig
from repro.common.types import NodeId


@dataclass(frozen=True)
class Coordinate:
    """(x, y) position of a node in the torus grid."""

    x: int
    y: int


class TorusTopology:
    """Geometry of a width x height torus with wrap-around links."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("torus dimensions must be positive")
        self.width = width
        self.height = height

    @classmethod
    def from_config(cls, config: InterconnectConfig) -> "TorusTopology":
        return cls(config.width, config.height)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coordinate_of(self, node: NodeId) -> Coordinate:
        """Node id -> grid coordinate (row-major layout)."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside torus of {self.num_nodes} nodes")
        return Coordinate(x=node % self.width, y=node // self.width)

    def _ring_distance(self, a: int, b: int, size: int) -> int:
        """Shortest distance between two positions on a ring of ``size``."""
        direct = abs(a - b)
        return min(direct, size - direct)

    def hop_count(self, src: NodeId, dst: NodeId) -> int:
        """Minimal hop count between two nodes (0 when src == dst)."""
        if src == dst:
            return 0
        a, b = self.coordinate_of(src), self.coordinate_of(dst)
        return self._ring_distance(a.x, b.x, self.width) + self._ring_distance(
            a.y, b.y, self.height
        )

    def crosses_bisection(self, src: NodeId, dst: NodeId) -> bool:
        """Does the dimension-order route cross the machine's X-axis bisection?

        The bisection cuts the torus into two halves of ``width/2`` columns.
        A route crosses it when the X-coordinates of source and destination
        fall in different halves.  (Wrap-around links also cross; the
        half-membership test covers both the direct and wrap path because the
        cut severs both.)
        """
        half = self.width // 2
        src_half = self.coordinate_of(src).x < half
        dst_half = self.coordinate_of(dst).x < half
        return src_half != dst_half

    def average_hop_count(self) -> float:
        """Mean hop count over all ordered (src != dst) pairs."""
        total = 0
        pairs = 0
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src == dst:
                    continue
                total += self.hop_count(src, dst)
                pairs += 1
        return total / pairs if pairs else 0.0
