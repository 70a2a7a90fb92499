"""Workload base classes, address-space layout helpers and the registry."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Type

from repro.common.rng import DeterministicRNG
from repro.common.types import (
    TYPE_ATOMIC,
    TYPE_READ,
    TYPE_SPIN_READ,
    TYPE_WRITE,
    BlockAddress,
    NodeId,
)


@dataclass(frozen=True)
class WorkloadParams:
    """Parameters shared by every workload generator.

    Attributes:
        num_nodes: Number of DSM nodes generating accesses (16 in the paper).
        seed: RNG seed; identical parameters + seed give identical traces.
        scale: Relative problem-size multiplier.  1.0 is the repository's
            default scaled-down configuration; larger values grow data-set
            sizes / iteration counts toward the paper's (much larger) inputs.
        target_accesses: Approximate number of accesses to generate; the
            generators stop at the end of the iteration/transaction during
            which the target is crossed.
        quantum: Number of consecutive accesses one node contributes before
            the interleaver switches to the next node (scientific workloads).
    """

    num_nodes: int = 16
    seed: int = 42
    scale: float = 1.0
    target_accesses: int = 200_000
    quantum: int = 8

    def scaled(self, value: int, minimum: int = 1) -> int:
        """Scale an integral size parameter by ``scale``."""
        return max(minimum, int(round(value * self.scale)))


class AddressSpace:
    """Allocates disjoint block-address regions to named data structures.

    Keeping every structure in its own region makes generated traces easy to
    reason about in tests (e.g. "lock blocks never appear as consumptions").
    Region 0 starts at block 1 so that address 0 never appears (it reads as
    "uninitialised" in debugging output).
    """

    def __init__(self) -> None:
        self._next_block: BlockAddress = 1
        self._regions: Dict[str, range] = {}

    def allocate(self, name: str, num_blocks: int) -> range:
        """Allocate ``num_blocks`` contiguous blocks for structure ``name``."""
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        region = range(self._next_block, self._next_block + num_blocks)
        self._regions[name] = region
        self._next_block += num_blocks
        return region


def interleave(per_node: List[list], quantum: int) -> Iterator:
    """Round-robin interleave per-node access lists, ``quantum`` at a time.

    Approximates the concurrent execution of one phase across the machine:
    all nodes progress together, none races a full phase ahead, and the
    phase ends with an implicit barrier (every list drained).
    """
    quantum = max(1, quantum)
    cursors = [0] * len(per_node)
    remaining = sum(len(accesses) for accesses in per_node)
    while remaining > 0:
        for node_index, accesses in enumerate(per_node):
            cursor = cursors[node_index]
            chunk = accesses[cursor : cursor + quantum]
            if not chunk:
                continue
            yield from chunk
            cursors[node_index] += len(chunk)
            remaining -= len(chunk)


class Workload(abc.ABC):
    """Base class for every workload generator."""

    #: Registry name, e.g. ``"em3d"``; set by subclasses.
    name: str = "workload"
    #: ``"scientific"`` or ``"commercial"``.
    category: str = "scientific"

    def __init__(self, params: Optional[WorkloadParams] = None) -> None:
        self.params = params if params is not None else WorkloadParams()
        self.rng = DeterministicRNG(self.params.seed)
        self.space = AddressSpace()
        #: Per-node retired-instruction counters used for access timestamps.
        self._node_time: List[int] = [0] * self.params.num_nodes

    # -------------------------------------------------------------- utilities
    #
    # The emitters produce *packed access records* — plain tuples
    # ``(node, block, type_code, pc, timestamp, dependent)`` — which the
    # engine packs straight into :class:`~repro.common.chunk.TraceChunk`
    # columns.
    def _access(
        self,
        node: NodeId,
        address: BlockAddress,
        type_code: int,
        pc: int = 0,
        work: int = 1,
        dependent: int = 0,
    ):
        """Create one packed access record, advancing the node's logical
        clock by ``work`` instructions (memory access + surrounding compute)."""
        times = self._node_time
        timestamp = times[node] + work
        times[node] = timestamp
        return (node, address, type_code, pc, timestamp, dependent)

    def read(self, node: NodeId, address: BlockAddress, pc: int = 0, work: int = 1):
        times = self._node_time
        timestamp = times[node] + work
        times[node] = timestamp
        return (node, address, TYPE_READ, pc, timestamp, 0)

    def dependent_read(self, node: NodeId, address: BlockAddress, pc: int = 0, work: int = 1):
        """A read whose address depends on the previous read's data (pointer
        chase); the timing model serialises these, keeping consumption MLP
        near 1 for the commercial workloads."""
        times = self._node_time
        timestamp = times[node] + work
        times[node] = timestamp
        return (node, address, TYPE_READ, pc, timestamp, 1)

    def write(self, node: NodeId, address: BlockAddress, pc: int = 0, work: int = 1):
        times = self._node_time
        timestamp = times[node] + work
        times[node] = timestamp
        return (node, address, TYPE_WRITE, pc, timestamp, 0)

    def spin_read(self, node: NodeId, address: BlockAddress, pc: int = 0):
        return self._access(node, address, TYPE_SPIN_READ, pc, work=1)

    def atomic(self, node: NodeId, address: BlockAddress, pc: int = 0):
        return self._access(node, address, TYPE_ATOMIC, pc, work=2)


# --------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Callable[[Optional[WorkloadParams]], Workload]] = {}

#: The paper's three scientific applications plus this repository's
#: sparse-solver extension.
SCIENTIFIC_WORKLOADS = ("em3d", "moldyn", "ocean", "sparse")
#: The paper's four commercial server workloads plus the SPECjbb-like
#: middleware tier extension.
COMMERCIAL_WORKLOADS = ("apache", "db2", "oracle", "zeus", "jbb")
ALL_WORKLOADS = SCIENTIFIC_WORKLOADS + COMMERCIAL_WORKLOADS


def register_workload(name: str):
    """Class decorator registering a workload under ``name``."""

    def decorator(cls: Type[Workload]) -> Type[Workload]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_workloads() -> List[str]:
    """Names of every registered workload, paper order."""
    ordered = [n for n in ALL_WORKLOADS if n in _REGISTRY]
    extras = sorted(set(_REGISTRY) - set(ordered))
    return ordered + extras


def get_workload(name: str, params: Optional[WorkloadParams] = None) -> Workload:
    """Instantiate a workload generator by name."""
    # Import lazily so the registry is populated even when callers import
    # only this module.
    from repro import workloads as _  # noqa: F401

    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from exc
    return cls(params)
