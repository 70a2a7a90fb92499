"""Configuration dataclasses encoding the paper's system parameters.

``SystemConfig.isca2005()`` carries the Table 1 parameters of the paper's
16-node DSM that the timing and traffic models read (README.md lists the
whole table); ``TSEConfig.paper_default()`` reproduces the TSE
configuration selected in Section 5 (two compared streams, 32-entry SVB,
1.5 MB CMOB for commercial workloads, per-workload lookahead from Table 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

# ----------------------------------------------------------------- env knobs
#: Registry of every ``REPRO_*`` environment knob the code base reads.
#:
#: This is the machine-checked source of truth for RL005 (``repro.lint``):
#: every ``os.environ`` read of a ``REPRO_*`` variable anywhere in the tree
#: must (a) happen inside this module, through the named accessor, and
#: (b) appear both here and in README.md's knob table.  Every knob is
#: result-neutral: it only steers *how* a result is computed (batching,
#: storage paths, benchmark sizes), as the bit-identity tests lock.  A
#: value that changes results belongs in a keyed field such as
#: :class:`TSEConfig`, so RL001 flags any entry marked ``result_affecting``.
ENV_REGISTRY: Dict[str, Dict[str, Any]] = {
    "REPRO_SERVICE_BATCH": {
        "accessor": "service_batch_size",
        "result_affecting": False,
        "description": "max jobs per service scheduler batch",
    },
    "REPRO_SERVICE_STORE": {
        "accessor": "service_store_override",
        "result_affecting": False,
        "description": "persistent result-store path",
    },
    "REPRO_BENCH_ACCESSES": {
        "accessor": "bench_accesses",
        "result_affecting": False,
        "description": "benchmark trace size (the size itself is keyed)",
    },
}


def _positive_int(name: str, default: int) -> int:
    """The integer knob ``name``, or ``default`` when it is unset or empty;
    any other value but a positive integer raises ``ValueError`` naming it."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


def service_batch_size(default: int) -> int:
    """``REPRO_SERVICE_BATCH``: max jobs per scheduler batch, else ``default``."""
    return _positive_int("REPRO_SERVICE_BATCH", default)


def service_store_override() -> Optional[str]:
    """``REPRO_SERVICE_STORE``: result-store path override (``None`` = default)."""
    return os.environ.get("REPRO_SERVICE_STORE") or None


def bench_accesses(default: int = 80000) -> int:
    """``REPRO_BENCH_ACCESSES``: per-workload trace size for benchmarks/tests.

    The value is part of every determinism key (it selects
    ``target_accesses``), so the knob itself is result-neutral.
    """
    return _positive_int("REPRO_BENCH_ACCESSES", default)


#: Fraction of each trace treated as warm-up (caches, CMOBs, directory
#: pointers), mirroring the paper's warming methodology (Section 4).  This is
#: the **single** source of the warm-up fraction: the experiment harness
#: (``repro.experiments.runner``), :func:`repro.tse.simulator.run_tse_on_trace`,
#: :func:`repro.prefetch.harness.evaluate_prefetcher` and the examples all
#: reference this constant rather than repeating a per-module literal
#: (locked in by ``tests/test_service.py::TestWarmupConstant``).
DEFAULT_WARMUP_FRACTION = 0.3


@dataclass(frozen=True)
class CacheConfig:
    """Timing of one cache level (its geometry is in README's Table 1).

    Attributes:
        hit_latency: Access latency in cycles.
        mshrs: Number of outstanding-miss registers.
    """

    hit_latency: int = 2
    mshrs: int = 32


@dataclass(frozen=True)
class ProcessorConfig:
    """Out-of-order core parameters (Table 1).

    The timing model does not simulate a pipeline; it uses these parameters to
    bound memory-level parallelism and to convert instruction counts into busy
    cycles.
    """

    clock_ghz: float = 4.0
    rob_entries: int = 256
    #: Base IPC assumed for non-memory work in the timing model.
    base_ipc: float = 2.0


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory parameters (Table 1)."""

    access_latency_ns: float = 60.0


@dataclass(frozen=True)
class InterconnectConfig:
    """2D torus interconnect parameters (Table 1)."""

    width: int = 4
    height: int = 4
    hop_latency_ns: float = 25.0
    #: Peak bisection bandwidth in GB/s for the whole machine.
    bisection_bandwidth_gbps: float = 128.0
    #: Per-message header overhead in bytes (address + routing + CRC).
    header_bytes: int = 16

    @property
    def num_nodes(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class TSEConfig:
    """Temporal Streaming Engine configuration (Section 3 / Section 5).

    Attributes:
        cmob_capacity: Number of address entries in each node's CMOB.
        cmob_entry_bytes: Size of one CMOB entry (6-byte physical address in
            the paper's storage accounting, Section 5.4).
        cmob_pointers_per_block: Number of recent-consumer CMOB pointers the
            directory stores per block (paper compares 1-4, selects 2); at
            least ``compared_streams``.
        compared_streams: Number of streams fetched and compared per stream
            head (equals cmob_pointers_per_block in the hardware).
        stream_lookahead: Number of blocks kept in flight / resident in the
            SVB ahead of the processor for each active stream.
        svb_entries: Number of blocks the streamed value buffer can hold
            (32 entries = 2 KB with 64-byte blocks).
        stream_queues: Number of stream queues (guards against thrashing).
        refill_threshold: When a stream queue holds fewer than this many
            pending addresses, the engine requests more from the source CMOB
            ("when a stream queue is half empty").
        queue_depth: Addresses requested from the CMOB per (re)fill.
    """

    cmob_capacity: int = 262144
    cmob_entry_bytes: int = 6
    cmob_pointers_per_block: int = 2
    compared_streams: int = 2
    stream_lookahead: int = 8
    svb_entries: int = 32
    stream_queues: int = 8
    refill_threshold: int = 0
    queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.cmob_capacity <= 0:
            raise ValueError("cmob_capacity must be positive")
        if self.compared_streams <= 0:
            raise ValueError("compared_streams must be positive")
        if self.cmob_pointers_per_block < self.compared_streams:
            # The directory must retain at least as many pointers as the
            # engine compares streams.
            raise ValueError("cmob_pointers_per_block must be at least compared_streams")
        if self.stream_lookahead < 0:
            raise ValueError("stream_lookahead must be non-negative")
        if self.svb_entries <= 0:
            raise ValueError("svb_entries must be positive")
        if self.stream_queues <= 0:
            raise ValueError("stream_queues must be positive")
        # Derive the queue depth / refill threshold from the lookahead when
        # they are left at their "auto" value of 0.
        if self.queue_depth == 0:
            object.__setattr__(self, "queue_depth", max(2 * self.stream_lookahead, 4))
        if self.refill_threshold == 0:
            object.__setattr__(self, "refill_threshold", max(self.queue_depth // 2, 1))

    @classmethod
    def paper_default(cls, lookahead: int = 8) -> "TSEConfig":
        """TSE configuration selected by the paper's sensitivity study.

        1.5 MB CMOB (262144 x 6-byte entries), two compared streams, 32-entry
        (2 KB) SVB.  ``lookahead`` defaults to the commercial-workload value;
        Table 3 uses 18 (em3d), 16 (moldyn), and 24 (ocean) for the scientific
        applications.
        """
        return cls(
            cmob_capacity=262144,
            cmob_pointers_per_block=2,
            compared_streams=2,
            stream_lookahead=lookahead,
            svb_entries=32,
        )

    @classmethod
    def unconstrained(cls, lookahead: int = 8, compared_streams: int = 2) -> "TSEConfig":
        """No-hardware-limits configuration used for opportunity studies.

        Mirrors Section 5.2: "unlimited SVB storage, unlimited number of
        stream queues, near-infinite CMOB capacity".
        """
        return cls(
            cmob_capacity=1 << 26,
            cmob_pointers_per_block=compared_streams,
            compared_streams=compared_streams,
            stream_lookahead=lookahead,
            svb_entries=1 << 22,
            stream_queues=1 << 16,
        )

    def with_(self, **kwargs: Any) -> "TSEConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Per-workload stream lookahead chosen in Table 3 of the paper, extended
#: with values for this repository's additional workloads (jbb follows the
#: commercial setting; sparse, like the other scientific codes, benefits
#: from a deeper lookahead).
PAPER_LOOKAHEAD: Dict[str, int] = {
    "em3d": 18,
    "moldyn": 16,
    "ocean": 24,
    "sparse": 20,
    "apache": 8,
    "db2": 8,
    "oracle": 8,
    "zeus": 8,
    "jbb": 8,
}


@dataclass(frozen=True)
class SystemConfig:
    """DSM system configuration: the Table 1 parameters the models read."""

    num_nodes: int = 16
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(hit_latency=25, mshrs=32))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    #: Protocol controller occupancy per message, in ns (1 GHz microcoded
    #: controller in the paper; a handful of microcode cycles per message).
    protocol_controller_occupancy_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.interconnect.num_nodes != self.num_nodes:
            raise ValueError(
                f"interconnect is {self.interconnect.width}x{self.interconnect.height} "
                f"({self.interconnect.num_nodes} nodes) but num_nodes={self.num_nodes}"
            )

    @property
    def clock_ghz(self) -> float:
        return self.processor.clock_ghz

    def ns_to_cycles(self, ns: float) -> float:
        """Convert nanoseconds to processor clock cycles."""
        return ns * self.clock_ghz

    @classmethod
    def isca2005(cls) -> "SystemConfig":
        """The exact Table 1 configuration: 16 nodes, 4x4 torus, 4 GHz cores."""
        return cls()
