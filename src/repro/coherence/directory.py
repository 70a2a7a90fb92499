"""Directory state for the DSM coherence protocol.

Each cache block has a *home node* (address-interleaved) whose directory
serializes the block's coherence transactions.  Which nodes hold the block
and who wrote it last live in the protocol's per-block state
(:mod:`repro.coherence.protocol`); a directory entry holds what TSE adds: a
small list of CMOB pointers identifying where recent consumers recorded the
block in their coherence-miss order (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.stats import StatsRegistry, publish_counters
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

    #: Most recent ``(node, offset)`` CMOB pointers, newest first.
    cmob_pointers: List[CMOBPointer] = field(default_factory=list)

    def record_cmob_pointer(self, node: NodeId, offset: int, max_pointers: int) -> None:
        """Insert/refresh a CMOB pointer, keeping at most ``max_pointers``.

        A newer pointer from the same node replaces the old one — the CMOB
        location of the most recent append is the one that starts a useful
        stream.
        """
        pointers = self.cmob_pointers
        for i, pointer in enumerate(pointers):
            if pointer[0] == node:
                del pointers[i]
                break
        pointers.insert(0, (node, offset))
        del pointers[max_pointers:]


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
        self._stats = StatsRegistry(prefix="directory")
        self._n_cmob_pointer_updates = 0
        self._entries: Dict[BlockAddress, DirectoryEntry] = {}

    @property
    def stats(self) -> StatsRegistry:
        """Statistics registry, synchronized with the plain-int counters on read."""
        return publish_counters(
            self._stats, {"cmob_pointer_updates": self._n_cmob_pointer_updates}
        )

    def home_of(self, address: BlockAddress) -> NodeId:
        """Home node of a block (low-order address interleaving)."""
        return address % self.num_nodes

    def entry(self, address: BlockAddress) -> DirectoryEntry:
        """Get (or lazily create) the directory entry for a block."""
        entry = self._entries.get(address)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[address] = entry
        return entry

    # -- TSE extension -------------------------------------------------------
    def record_cmob_pointer(self, address: BlockAddress, node: NodeId, offset: int) -> None:
        """Store a CMOB pointer for ``address`` (Section 3.1, step 4)."""
        self.entry(address).record_cmob_pointer(node, offset, self.cmob_pointers_per_block)
        self._n_cmob_pointer_updates += 1

    def cmob_pointers(self, address: BlockAddress) -> List[CMOBPointer]:
        """CMOB pointers for a block, newest first (may be empty)."""
        entry = self._entries.get(address)
        return list(entry.cmob_pointers) if entry is not None else []

    def pointer_storage_bits(self, cmob_capacity: int) -> int:
        """Per-entry CMOB-pointer storage in bits (Section 3.2 formula)."""
        import math

        node_bits = max(1, math.ceil(math.log2(self.num_nodes)))
        offset_bits = max(1, math.ceil(math.log2(max(cmob_capacity, 2))))
        return self.cmob_pointers_per_block * (node_bits + offset_bits)
