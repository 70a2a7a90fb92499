"""Configuration dataclasses encoding the paper's system parameters.

``SystemConfig.isca2005()`` reproduces Table 1 of the paper (the 16-node DSM
used for all timing results); ``TSEConfig.paper_default()`` reproduces the TSE
configuration selected in Section 5 (two compared streams, 32-entry SVB,
1.5 MB CMOB for commercial workloads, per-workload lookahead from Table 3).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Optional, Tuple

#: Fallback chunk size when ``REPRO_STREAM_CHUNK`` is unset: large enough to
#: amortize the replay loop's per-segment local binding, small enough that a
#: chunk's six packed columns stay cache-resident.
DEFAULT_STREAM_CHUNK = 16384


# ----------------------------------------------------------------- env knobs
#: Registry of every ``REPRO_*`` environment knob the code base reads.
#:
#: This is the machine-checked source of truth for RL005 (``repro.lint``):
#: every ``os.environ`` read of a ``REPRO_*`` variable anywhere in the tree
#: must (a) happen inside this module, through the named accessor, and
#: (b) appear both here and in README.md's knob table.  ``result_affecting``
#: feeds RL001: accessors of result-affecting knobs may only be called from
#: the result plane (``tse/``, ``workloads/``) if their value is folded into
#: the determinism keys (see :func:`mode_key` /
#: ``repro.experiments.cache.KEY_FIELDS``); result-neutral knobs only steer
#: *how* a result is computed (worker counts, batching, storage paths) and
#: are locked as such by the bit-identity tests.
ENV_REGISTRY: Dict[str, Dict[str, Any]] = {
    "REPRO_STREAM_CHUNK": {
        "accessor": "stream_chunk_size",
        "result_affecting": False,
        "description": "accesses per packed TraceChunk (replay batching; "
                       "bit-identical by construction)",
    },
    "REPRO_FAST_MODE": {
        "accessor": "_env_mode",
        "result_affecting": True,
        "description": "selects the batched non-bit-identical replay plane",
    },
    "REPRO_FAST_REFILL_FACTOR": {
        "accessor": "fast_refill_factor",
        "result_affecting": True,
        "description": "deep-window amortization factor of the fast plane",
    },
    "REPRO_PARALLEL_WORKERS": {
        "accessor": "parallel_workers_override",
        "result_affecting": False,
        "description": "run_parallel worker-process count",
    },
    "REPRO_SERVICE_WORKERS": {
        "accessor": "service_workers_override",
        "result_affecting": False,
        "description": "service scheduler worker slots",
    },
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
    "REPRO_JOB_TIMEOUT": {
        "accessor": "job_timeout",
        "result_affecting": False,
        "description": "per-job execution timeout in seconds (unset = no "
                       "timeout); timed-out jobs count as failed attempts",
    },
    "REPRO_JOB_RETRIES": {
        "accessor": "job_retries",
        "result_affecting": False,
        "description": "attempts per job before poison-quarantine (failed "
                       "with captured traceback; campaign completes degraded)",
    },
    "REPRO_LEASE_TTL": {
        "accessor": "lease_ttl",
        "result_affecting": False,
        "description": "worker lease time-to-live in seconds; expired "
                       "leases requeue their jobs",
    },
    "REPRO_WORKER_ID": {
        "accessor": "worker_id_override",
        "result_affecting": False,
        "description": "stable identity a fleet worker registers leases "
                       "under (default: host-pid derived)",
    },
    "REPRO_HTTP_TIMEOUT": {
        "accessor": "http_timeout",
        "result_affecting": False,
        "description": "per-attempt HTTP timeout in seconds for CLI/worker "
                       "calls through the retrying transport",
    },
    "REPRO_HTTP_RETRIES": {
        "accessor": "http_retries",
        "result_affecting": False,
        "description": "attempts per HTTP call before the transport gives "
                       "up (retryable faults only; 4xx never retries)",
    },
    "REPRO_BENCH_ACCESSES": {
        "accessor": "bench_accesses",
        "result_affecting": False,
        "description": "benchmark trace size (the size itself is keyed)",
    },
    "REPRO_EVENTS_ENABLED": {
        "accessor": "events_enabled",
        "result_affecting": False,
        "description": "campaign telemetry event emission (observational "
                       "only; results are byte-identical either way)",
    },
    "REPRO_EVENTS_POLL": {
        "accessor": "events_poll_interval",
        "result_affecting": False,
        "description": "SSE tail poll-fallback/keepalive interval in "
                       "seconds (liveness of the stream, never its content)",
    },
}


def _env_positive_int(name: str) -> Optional[int]:
    """Parse an optional positive-integer knob; invalid values read as unset.

    ``max(1, value)`` mirrors the historical per-site parsers: explicit
    non-positive values clamp to 1 rather than silently selecting a default
    that may differ between call sites.
    """
    raw = os.environ.get(name)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return None
    return None


def parallel_workers_override() -> Optional[int]:
    """``REPRO_PARALLEL_WORKERS``: worker count for ``run_parallel``.

    ``None`` (unset or unparsable) lets the caller fall back to the CPU
    count; the knob never changes results — parallel and serial sweeps merge
    rows in identical order (locked by ``tests/test_perf_infra.py``).
    """
    return _env_positive_int("REPRO_PARALLEL_WORKERS")


def service_workers_override() -> Optional[int]:
    """``REPRO_SERVICE_WORKERS``: scheduler worker slots (``None`` = default)."""
    return _env_positive_int("REPRO_SERVICE_WORKERS")


def service_batch_size(default: int = 64) -> int:
    """``REPRO_SERVICE_BATCH``: max jobs per scheduler batch."""
    value = _env_positive_int("REPRO_SERVICE_BATCH")
    return value if value is not None else default


def service_store_override() -> Optional[str]:
    """``REPRO_SERVICE_STORE``: result-store path override (``None`` = default)."""
    return os.environ.get("REPRO_SERVICE_STORE") or None


def job_timeout() -> Optional[float]:
    """``REPRO_JOB_TIMEOUT``: per-job execution timeout in seconds.

    ``None`` (unset, unparsable, or non-positive) disables the timeout.
    The knob never changes results — a timed-out job is retried or
    quarantined, never recorded with partial rows.
    """
    raw = os.environ.get("REPRO_JOB_TIMEOUT")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return None
        if value > 0:
            return value
    return None


def job_retries(default: int = 3) -> int:
    """``REPRO_JOB_RETRIES``: attempts per job before poison-quarantine.

    A job that fails this many times is marked ``failed`` with its captured
    traceback and the campaign completes degraded instead of hanging.
    """
    value = _env_positive_int("REPRO_JOB_RETRIES")
    return value if value is not None else default


def lease_ttl(default: float = 60.0) -> float:
    """``REPRO_LEASE_TTL``: worker lease time-to-live in seconds.

    A worker that neither heartbeats nor posts results within the TTL is
    presumed dead; the expiry sweeper requeues its leased jobs.
    """
    raw = os.environ.get("REPRO_LEASE_TTL")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return default
        if value > 0:
            return value
    return default


def worker_id_override() -> Optional[str]:
    """``REPRO_WORKER_ID``: stable fleet-worker identity (``None`` = derived)."""
    return os.environ.get("REPRO_WORKER_ID") or None


def http_timeout(default: float = 600.0) -> float:
    """``REPRO_HTTP_TIMEOUT``: per-attempt HTTP timeout in seconds.

    Applies to every CLI/worker call routed through
    :class:`repro.service.transport.HttpTransport`.  The default matches
    the historical CLI timeout (``submit --wait`` blocks server-side until
    the campaign settles, so the budget must cover whole-campaign
    latency); workers pass a tighter explicit value.
    """
    raw = os.environ.get("REPRO_HTTP_TIMEOUT")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return default
        if value > 0:
            return value
    return default


def http_retries(default: int = 5) -> int:
    """``REPRO_HTTP_RETRIES``: attempts per HTTP call before giving up.

    Only retryable transport faults (connection refused/reset, mid-body
    disconnect, 502/503/504) consume the budget; terminal HTTP statuses
    (other 4xx, 410 lease-gone) fail immediately.  Exhausting the budget
    raises ``TransportError`` so a dead server fails workers cleanly
    instead of hanging them.
    """
    value = _env_positive_int("REPRO_HTTP_RETRIES")
    return value if value is not None else default


def events_enabled(default: bool = True) -> bool:
    """``REPRO_EVENTS_ENABLED``: campaign telemetry event emission.

    Events are observational — they never enter a determinism key and the
    stored result rows are byte-identical with emission on or off (the
    ``events_overhead`` benchmark series measures exactly that).  Any of
    ``0/false/no/off`` disables emission; everything else (including unset)
    leaves it on.
    """
    raw = os.environ.get("REPRO_EVENTS_ENABLED")
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


def events_poll_interval(default: float = 2.0) -> float:
    """``REPRO_EVENTS_POLL``: SSE tail poll-fallback interval in seconds.

    A server-sent-events tail wakes on the in-process hub's notifications
    and additionally polls the durable log at this interval, so a dropped
    or delayed notification (including an injected ``events.notify`` fault)
    delays the stream by at most this long and never loses an event.
    Invalid or non-positive values fall back to the default.
    """
    raw = os.environ.get("REPRO_EVENTS_POLL")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return default
        if value > 0:
            return value
    return default


def bench_accesses(default: int = 80000) -> int:
    """``REPRO_BENCH_ACCESSES``: per-workload trace size for benchmarks/tests.

    The value is part of every determinism key (it selects
    ``target_accesses``), so the knob itself is result-neutral.  A present
    but non-integer value raises ``ValueError`` — benchmarks should fail
    loudly, not silently run at a different size.
    """
    raw = os.environ.get("REPRO_BENCH_ACCESSES")
    return int(raw) if raw else default

#: Fraction of each trace treated as warm-up (caches, CMOBs, directory
#: pointers), mirroring the paper's warming methodology (Section 4).  This is
#: the **single** source of the warm-up fraction: the experiment harness
#: (``repro.experiments.runner``), :func:`repro.tse.simulator.run_tse_on_trace`,
#: :func:`repro.prefetch.harness.evaluate_prefetcher` and the examples all
#: reference this constant rather than repeating a per-module literal
#: (locked in by ``tests/test_service.py::TestWarmupConstant``).
DEFAULT_WARMUP_FRACTION = 0.3


def stream_chunk_size() -> int:
    """Accesses per packed :class:`~repro.common.chunk.TraceChunk`.

    The columnar trace backbone emits, stores, and replays traces in
    fixed-size chunks of this many accesses.  Controlled by the
    ``REPRO_STREAM_CHUNK`` environment variable (documented in README.md
    alongside ``REPRO_BENCH_ACCESSES`` / ``REPRO_PARALLEL_WORKERS``);
    invalid or non-positive values fall back to the default.
    """
    env = os.environ.get("REPRO_STREAM_CHUNK")
    if env:
        try:
            value = int(env)
        except ValueError:
            return DEFAULT_STREAM_CHUNK
        if value > 0:
            return value
    return DEFAULT_STREAM_CHUNK


# --------------------------------------------------------------------- modes
#: The bit-exact replay pipeline (the default; every reference artifact and
#: the timing model run here).
MODE_EXACT = "exact"
#: The batched-orchestration replay pipeline: statistically validated
#: against tolerance bands, never bit-identical to exact.
MODE_FAST = "fast"

#: Every valid simulation mode, in preference order.
SIM_MODES = (MODE_EXACT, MODE_FAST)

#: Default deep-window amortization factor of the fast engine: candidate
#: streams and refills read ``queue_depth * factor`` addresses per CMOB
#: window, trading address-stream volume for ~4-8x fewer refill events.
#: Traffic-accounting runs ignore it (they use ``queue_depth`` windows so
#: the modelled address-stream bytes stay inside the declared ±5% band).
DEFAULT_FAST_REFILL_FACTOR = 4


def fast_refill_factor() -> int:
    """Deep-window factor for the fast engine (``REPRO_FAST_REFILL_FACTOR``).

    Invalid or non-positive values fall back to
    :data:`DEFAULT_FAST_REFILL_FACTOR`.
    """
    env = os.environ.get("REPRO_FAST_REFILL_FACTOR")
    if env:
        try:
            value = int(env)
        except ValueError:
            return DEFAULT_FAST_REFILL_FACTOR
        if value > 0:
            return value
    return DEFAULT_FAST_REFILL_FACTOR


def _env_mode() -> str:
    """Mode selected by the ``REPRO_FAST_MODE`` environment variable."""
    env = os.environ.get("REPRO_FAST_MODE", "").strip().lower()
    return MODE_FAST if env in ("1", "true", "yes", "on", "fast") else MODE_EXACT


#: Process-ambient mode override (installed by :func:`sim_mode_context`);
#: ``None`` defers to the environment.
_AMBIENT_MODE: Optional[str] = None


def _validate_mode(mode: str) -> str:
    if mode not in SIM_MODES:
        raise ValueError(f"unknown simulation mode {mode!r}; valid: {SIM_MODES}")
    return mode


def resolve_mode(mode: Optional[str] = None) -> str:
    """Resolve an explicit, ambient, or environment-selected simulation mode.

    Precedence: an explicit ``mode`` argument, then the process-ambient mode
    installed by :func:`sim_mode_context` (the service layer wraps job
    execution in it), then ``REPRO_FAST_MODE``.  Every keyed consumer
    (result cache, service store) resolves the mode *before* building its
    key, so fast and exact results can never collide.
    """
    if mode is not None:
        return _validate_mode(mode)
    if _AMBIENT_MODE is not None:
        return _AMBIENT_MODE
    return _env_mode()


def mode_key(mode: Optional[str] = None) -> Tuple[Any, ...]:
    """Determinism-key component naming the resolved simulation mode.

    Exact mode renders as ``("mode", "exact")`` — byte-identical to the
    historical key layout, so persisted exact-mode results survive.  Fast
    mode additionally folds in every result-affecting fast-plane knob
    (currently the ``REPRO_FAST_REFILL_FACTOR`` deep-window factor): the
    factor changes the plane's CMOB window depth and therefore its
    aggregates, so two fast runs under different factors must never share a
    cache row or store key.  RL001 (``repro.lint``) verifies statically that
    every result-affecting env accessor called from the result plane is
    referenced by a key builder like this one.
    """
    resolved = resolve_mode(mode)
    if resolved == MODE_FAST:
        return ("mode", resolved, ("fast_refill_factor", fast_refill_factor()))
    return ("mode", resolved)


@contextmanager
def sim_mode_context(mode: Optional[str]) -> Iterator[str]:
    """Install the process-ambient simulation mode for a scope.

    ``None`` clears it (the environment decides); the previous ambient mode
    is restored on exit.  This is how the mode reaches experiment point
    functions without signature changes: ``Job.execute`` wraps the point
    call, and ``cached_tse_run`` / ``run_tse_on_trace`` resolve the ambient
    mode when no explicit one is passed.
    """
    global _AMBIENT_MODE
    previous = _AMBIENT_MODE
    _AMBIENT_MODE = None if mode is None else _validate_mode(mode)
    try:
        yield resolve_mode()
    finally:
        _AMBIENT_MODE = previous


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes:
        size_bytes: Total capacity in bytes.
        associativity: Number of ways per set.
        block_size: Coherence unit in bytes (64 B in the paper).
        hit_latency: Access latency in cycles.
        mshrs: Number of outstanding-miss registers.
    """

    size_bytes: int
    associativity: int
    block_size: int = 64
    hit_latency: int = 2
    mshrs: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.size_bytes % (self.block_size * self.associativity):
            raise ValueError(
                "cache size must be a multiple of block_size * associativity"
            )

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class ProcessorConfig:
    """Out-of-order core parameters (Table 1).

    The timing model does not simulate a pipeline; it uses these parameters to
    bound memory-level parallelism and to convert instruction counts into busy
    cycles.
    """

    clock_ghz: float = 4.0
    dispatch_width: int = 8
    rob_entries: int = 256
    lsq_entries: int = 256
    store_buffer_entries: int = 256
    #: Base IPC assumed for non-memory work in the timing model.
    base_ipc: float = 2.0


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory parameters (Table 1)."""

    access_latency_ns: float = 60.0
    banks_per_node: int = 64
    block_size: int = 64


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

    @property
    def cmob_capacity_bytes(self) -> int:
        """CMOB storage footprint per node in bytes."""
        return self.cmob_capacity * self.cmob_entry_bytes

    @property
    def svb_bytes(self) -> int:
        """SVB data capacity in bytes (64-byte blocks)."""
        return self.svb_entries * 64

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
    """Full DSM system configuration (Table 1 of the paper)."""

    num_nodes: int = 16
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, associativity=2, hit_latency=2, mshrs=32
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=8 * 1024 * 1024, associativity=8, hit_latency=25, mshrs=32
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    #: Protocol controller occupancy per message, in ns (1 GHz microcoded
    #: controller in the paper; a handful of microcode cycles per message).
    protocol_controller_occupancy_ns: float = 10.0
    block_size: int = 64

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

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert processor clock cycles to nanoseconds."""
        return cycles / self.clock_ghz

    @property
    def memory_latency_cycles(self) -> float:
        return self.ns_to_cycles(self.memory.access_latency_ns)

    @property
    def hop_latency_cycles(self) -> float:
        return self.ns_to_cycles(self.interconnect.hop_latency_ns)

    @classmethod
    def isca2005(cls) -> "SystemConfig":
        """The exact Table 1 configuration: 16 nodes, 4x4 torus, 4 GHz cores."""
        return cls()

    @classmethod
    def small(cls, num_nodes: int = 4) -> "SystemConfig":
        """A scaled-down configuration for tests and quick examples."""
        import math

        width = int(math.isqrt(num_nodes))
        while num_nodes % width:
            width -= 1
        height = num_nodes // width
        return cls(
            num_nodes=num_nodes,
            l1=CacheConfig(size_bytes=16 * 1024, associativity=2, hit_latency=2, mshrs=16),
            l2=CacheConfig(
                size_bytes=256 * 1024, associativity=8, hit_latency=25, mshrs=16
            ),
            interconnect=InterconnectConfig(width=width, height=height),
        )
