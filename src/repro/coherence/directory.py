"""Directory state for the DSM coherence protocol.

Each cache block has a *home node* (address-interleaved) whose directory
serializes the block's coherence transactions.  Which nodes hold the block
and who wrote it last live in the protocol's per-block state
(:mod:`repro.coherence.protocol`); a directory entry holds what TSE adds: a
small list of CMOB pointers identifying where recent consumers recorded the
block in their coherence-miss order (Section 3.2).

The TSE planes read and update the pointer lists in place: an entry is
created, and a pointer pushed, when a node records a consumption or an SVB
hit (:meth:`TemporalStreamingSystem._record
<repro.tse.engine.TemporalStreamingSystem._record>` in the exact plane).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.types import BlockAddress, NodeId


#: Directory-resident pointer into a node's CMOB: ``(node, offset)``.
#: ``node`` is the node whose CMOB holds the entry; ``offset`` is the entry's
#: monotonic append count within that CMOB (so staleness can be detected
#: after wrap-around).  A plain tuple: one pointer is recorded per
#: consumption and per SVB hit, squarely on the replay fast path.
CMOBPointer = Tuple[NodeId, int]


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one block (created when TSE first records a pointer)."""

    #: Most recent ``(node, offset)`` CMOB pointers, newest first, at most
    #: one per node and at most ``Directory.cmob_pointers_per_block``.
    cmob_pointers: List[CMOBPointer] = field(default_factory=list)


class Directory:
    """The distributed directory, indexed by block address.

    A single object models all per-node directory slices; the home node of a
    block is derived from its address so bandwidth/latency accounting knows
    which node the request and reply traverse.
    """

    def __init__(self, num_nodes: int, cmob_pointers_per_block: int = 2) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.cmob_pointers_per_block = cmob_pointers_per_block
        self._entries: Dict[BlockAddress, DirectoryEntry] = {}

    def home_of(self, address: BlockAddress) -> NodeId:
        """Home node of a block (low-order address interleaving)."""
        return address % self.num_nodes
