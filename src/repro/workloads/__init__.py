"""Workload generators (Workload Engine v2).

The paper evaluates three scientific applications (em3d, moldyn, ocean) and
four commercial server workloads (TPC-C on DB2 and Oracle, SPECweb99 on
Apache and Zeus); this repository adds a SPECjbb-like middleware tier (jbb)
and a sparse iterative solver (sparse).  The real software stacks cannot be
run here, so each workload is replaced by a generator that executes the same
*sharing structure* — the data-structure traversals that produce coherent
read misses — and emits a globally interleaved multi-node access trace.

Every workload is a **mixture of composable primitives**
(:mod:`repro.workloads.primitives`: shared templates, pointer-chase chains,
strided sweeps, zipf-reuse churn pools, producer->consumer partitioned
sweeps) assembled by a request- or phase-combinator
(:mod:`repro.workloads.engine`) that also emits the trace as packed
columns: ``workload.stream_chunks()`` yields one
:class:`~repro.common.chunk.TraceChunk` at a time, so a trace need not be
materialized in memory, while ``workload.generate_chunked()`` returns the
whole :class:`~repro.common.chunk.ChunkedTrace`.

The generators are calibrated (see ``tests/test_stream_lengths.py`` and
EXPERIMENTS.md) so the temporal-correlation and stream-length behaviour of
the traces matches the paper's characterisation:

* scientific workloads repeat essentially identical consumption sequences
  every iteration (near-100 % correlation, streams of hundreds to thousands
  of blocks — Figure 13's right-shifted CDFs);
* commercial workloads mix migratory templates (correlated) with irregular
  shared-structure churn (uncorrelated), giving ~40-65 % correlated
  consumptions and 30-45 % of TSE coverage from streams shorter than eight
  blocks.
"""

from repro.workloads.base import (
    ALL_WORKLOADS,
    COMMERCIAL_WORKLOADS,
    SCIENTIFIC_WORKLOADS,
    Workload,
    WorkloadParams,
    available_workloads,
    get_workload,
)
from repro.workloads.em3d import Em3dWorkload
from repro.workloads.engine import MixtureWorkload, PhasedWorkload, RequestWorkload
from repro.workloads.jbb import JBBWorkload
from repro.workloads.moldyn import MoldynWorkload
from repro.workloads.ocean import OceanWorkload
from repro.workloads.oltp import DB2Workload, OLTPWorkload, OracleWorkload
from repro.workloads.sparse import SparseSolverWorkload
from repro.workloads.web import ApacheWorkload, WebServerWorkload, ZeusWorkload

__all__ = [
    "Workload",
    "WorkloadParams",
    "MixtureWorkload",
    "PhasedWorkload",
    "RequestWorkload",
    "available_workloads",
    "get_workload",
    "SCIENTIFIC_WORKLOADS",
    "COMMERCIAL_WORKLOADS",
    "ALL_WORKLOADS",
    "Em3dWorkload",
    "MoldynWorkload",
    "OceanWorkload",
    "SparseSolverWorkload",
    "OLTPWorkload",
    "DB2Workload",
    "OracleWorkload",
    "JBBWorkload",
    "WebServerWorkload",
    "ApacheWorkload",
    "ZeusWorkload",
]
