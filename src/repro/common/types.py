"""Core vocabulary types used throughout the reproduction.

The simulators operate on *block addresses*: byte addresses shifted right by
``log2(block_size)``.  Using plain integers keeps the hot loops fast while the
light wrapper types document intent at module boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: A full byte address in the simulated physical address space.
Address = int

#: A cache-block-granular address (byte address >> log2(block size)).
BlockAddress = int

#: Index of a DSM node (0 .. num_nodes - 1).
NodeId = int


class AccessType(enum.Enum):
    """Kind of memory access issued by a processor."""

    READ = "read"
    WRITE = "write"
    #: Read that is part of a spin loop on a contended synchronisation
    #: variable.  The paper explicitly excludes these from consumptions
    #: ("there is no performance advantage to predicting or streaming them").
    SPIN_READ = "spin_read"
    #: Atomic read-modify-write (lock acquire/release, barrier arrival).
    ATOMIC = "atomic"


#: Small-int encoding of :class:`AccessType` used by the columnar trace
#: backbone: packed ``TraceChunk`` columns store one of these codes per
#: access, and the hot loops classify through :data:`TYPE_IS_WRITE`
#: instead of enum dispatch.
TYPE_READ = 0
TYPE_WRITE = 1
TYPE_SPIN_READ = 2
TYPE_ATOMIC = 3

#: Small-int code -> AccessType (the object view's decode table).
ACCESS_TYPE_FROM_CODE = (
    AccessType.READ,
    AccessType.WRITE,
    AccessType.SPIN_READ,
    AccessType.ATOMIC,
)

#: Indexed by type code: whether the access modifies the block (writes
#: and atomics).
TYPE_IS_WRITE = (False, True, False, True)


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """A single shared-memory access issued by one node.

    The object view of one row of a packed trace:
    :attr:`~repro.common.chunk.ChunkedTrace.accesses` decodes the columns
    into these.

    Attributes:
        node: Node issuing the access.
        address: Block-granular address being accessed.
        access_type: Read / write / spin-read / atomic.
        pc: Optional program-counter tag (used only by PC-indexed baselines).
        timestamp: Logical per-node instruction count at which the access
            retires; used by the timing model to reconstruct inter-access
            compute gaps.
        dependent: True when the access's address depends on the value
            returned by the node's previous shared read (pointer chasing).
            The timing model serialises dependent accesses, which is what
            keeps consumption MLP near 1 in the commercial workloads.
    """

    node: NodeId
    address: BlockAddress
    access_type: AccessType
    pc: int = 0
    timestamp: int = 0
    dependent: bool = False


@dataclass(slots=True)
class Consumption:
    """A coherent read miss that TSE may target.

    Attributes:
        node: Consuming node.
        address: Block address missed on.
        index: Position of this consumption in the node's consumption order
            (i.e., its CMOB slot if recorded).
        global_index: Position in the system-wide interleaved access trace,
            used to reason about inter-node recency.
        timestamp: Per-node logical time of the access.
        producer: Node that last wrote the block (the "owner" the data comes
            from), when known.
    """

    node: NodeId
    address: BlockAddress
    index: int
    global_index: int
    timestamp: int = 0
    producer: Optional[NodeId] = None
