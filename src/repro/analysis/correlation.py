"""Temporal address correlation and stream locality analysis (Figure 6).

The paper defines *temporal correlation distance* as the distance along the
most recent sharer's consumption order between consecutive consumptions of
the node under study.  If node m's order contains ``{A, B, C, D}`` and the
current node has just consumed ``C`` (whose most recent prior consumer was m,
at position p), then a next consumption of ``D`` has distance +1 (perfect
correlation), while a next consumption of ``A`` has distance -2.

Figure 6 plots, for distances 1..16, the cumulative fraction of consumptions
whose distance satisfies ``|distance| <= d``; consumptions whose next address
does not appear within the +/-16 window around the reference position are
uncorrelated (they never enter the cumulative curve).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import Consumption


@dataclass
class CorrelationResult:
    """Distribution of temporal correlation distances for one workload."""

    workload: str = ""
    #: Count of consumption pairs at each signed distance (+1 = perfect).
    distance_counts: Dict[int, int] = field(default_factory=dict)
    #: Consumption pairs with no match within the analysis window.
    uncorrelated: int = 0
    #: Consumption pairs with no reference (first-ever consumption of the
    #: head address system-wide) — also uncorrelated for Figure 6 purposes.
    no_reference: int = 0
    #: Total consumption pairs analysed.
    total: int = 0

    def fraction_at(self, distance: int) -> float:
        """Fraction of consumptions at exactly the given signed distance."""
        if not self.total:
            return 0.0
        return self.distance_counts.get(distance, 0) / self.total

    def cumulative_fraction(self, max_abs_distance: int) -> float:
        """Fraction of consumptions with ``|distance| <= max_abs_distance``."""
        if not self.total:
            return 0.0
        covered = sum(
            count
            for distance, count in self.distance_counts.items()
            if abs(distance) <= max_abs_distance and distance != 0
        )
        return covered / self.total

    @property
    def perfectly_correlated(self) -> float:
        """Fraction with distance exactly +1 (perfect temporal correlation)."""
        return self.fraction_at(1)


def temporal_correlation(
    per_node_consumptions: Sequence[Sequence[Consumption]],
    max_distance: int = 16,
    workload: str = "",
    measure_from_global_index: int = 0,
) -> CorrelationResult:
    """Measure temporal correlation distances over per-node consumption orders.

    Args:
        per_node_consumptions: One consumption sequence per node, each in the
            node's program order (as produced by
            :func:`repro.coherence.protocol.trace_consumptions`).
        max_distance: Window (in order positions) searched around the
            reference for the next consumption's address.
        workload: Label copied into the result.
        measure_from_global_index: Consumptions whose ``global_index`` is
            below this threshold still build history (orders, most-recent
            consumers) but are not scored — the analysis equivalent of the
            paper's warm-up before measurement.
    """
    result = CorrelationResult(workload=workload)

    # Rebuild the global consumption interleaving so "most recent consumer"
    # can be resolved at every point in time.
    tagged: List[Tuple[int, int, Consumption]] = []  # (global_index, node, consumption)
    for node_id, consumptions in enumerate(per_node_consumptions):
        for consumption in consumptions:
            tagged.append((consumption.global_index, node_id, consumption))
    tagged.sort(key=lambda item: item[0])

    #: address -> (node, index in that node's order) of the most recent consumer.
    last_consumer: Dict[int, Tuple[int, int]] = {}
    #: For every node, a per-address index of positions in its order, built
    #: incrementally so lookups only see *past* consumptions.
    position_index: List[Dict[int, List[int]]] = [dict() for _ in per_node_consumptions]
    orders: List[List[int]] = [
        [c.address for c in consumptions] for consumptions in per_node_consumptions
    ]

    # The reference established by each node's previous consumption:
    # (sharer node, position of the previous consumption in the sharer's order).
    reference: List[Optional[Tuple[int, int]]] = [None] * len(per_node_consumptions)

    for global_index, node_id, consumption in tagged:
        address = consumption.address

        # (1) Score this consumption against the reference set by the node's
        # previous consumption (skipped during the warm-up prefix).
        ref = reference[node_id]
        if global_index >= measure_from_global_index:
            result.total += 1
            if ref is None:
                result.no_reference += 1
            else:
                sharer, position = ref
                distance = _nearest_occurrence(
                    orders[sharer], position_index[sharer], address, position, max_distance
                )
                if distance is None:
                    result.uncorrelated += 1
                else:
                    result.distance_counts[distance] = result.distance_counts.get(distance, 0) + 1

        # (2) Establish the reference for the node's next consumption: the
        # most recent consumer of this address (excluding this consumption).
        result_ref = last_consumer.get(address)
        reference[node_id] = result_ref

        # (3) Publish this consumption as the most recent for its address and
        # index it for future lookups.
        own_position = consumption.index
        last_consumer[address] = (node_id, own_position)
        position_index[node_id].setdefault(address, []).append(own_position)

    return result


def _nearest_occurrence(
    order: List[int],
    index: Dict[int, List[int]],
    address: int,
    reference_position: int,
    max_distance: int,
) -> Optional[int]:
    """Signed distance from ``reference_position`` to the nearest *past*
    occurrence of ``address`` in ``order``, within ``max_distance``; None when
    no occurrence falls inside the window."""
    positions = index.get(address)
    if not positions:
        return None
    best: Optional[int] = None
    best_abs = max_distance + 1
    # positions is sorted (append order); binary search the neighbourhood.
    # Only the insertion point's immediate neighbours can be nearest, so the
    # candidate scan is a fixed three-slot window around it.
    insert_at = bisect_left(positions, reference_position)
    num_positions = len(positions)
    lo = insert_at - 1 if insert_at > 0 else 0
    hi = insert_at + 2 if insert_at + 2 < num_positions else num_positions
    for candidate_index in range(lo, hi):
        distance = positions[candidate_index] - reference_position
        if distance == 0:
            continue
        distance_abs = distance if distance > 0 else -distance
        if distance_abs <= max_distance and distance_abs < best_abs:
            best = distance
            best_abs = distance_abs
    return best


def cumulative_correlation(
    result: CorrelationResult, distances: Sequence[int] = tuple(range(1, 17))
) -> List[Tuple[int, float]]:
    """Figure 6 series: (distance, cumulative fraction) points."""
    return [(d, result.cumulative_fraction(d)) for d in distances]
