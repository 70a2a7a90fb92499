"""Common infrastructure shared by every subsystem.

This package provides the vocabulary types (addresses, accesses, node ids),
configuration dataclasses encoding the paper's Table 1 / Table 2 parameters,
deterministic random-number helpers and statistics counters.
"""

from repro.common.config import (
    CacheConfig,
    InterconnectConfig,
    MemoryConfig,
    ProcessorConfig,
    SystemConfig,
    TSEConfig,
)
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Histogram, StatsRegistry
from repro.common.types import (
    AccessType,
    Address,
    BlockAddress,
    MemoryAccess,
    NodeId,
)

__all__ = [
    "AccessType",
    "Address",
    "BlockAddress",
    "MemoryAccess",
    "NodeId",
    "CacheConfig",
    "InterconnectConfig",
    "MemoryConfig",
    "ProcessorConfig",
    "SystemConfig",
    "TSEConfig",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "DeterministicRNG",
]
