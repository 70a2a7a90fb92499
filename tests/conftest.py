"""Shared fixtures: small deterministic traces and configurations."""

from __future__ import annotations

import pytest

from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import SystemConfig, TSEConfig
from repro.workloads import get_workload
from repro.workloads.base import WorkloadParams


def _column_trace(rows, num_nodes, name="synthetic"):
    chunk = TraceChunk()
    chunk.extend_packed(rows)
    trace = ChunkedTrace(num_nodes=num_nodes, name=name)
    trace.append_chunk(chunk)
    return trace


@pytest.fixture(scope="session")
def column_trace():
    """Builder for hand-written traces: ``column_trace(rows, num_nodes,
    name="synthetic")`` packs ``(node, block, type_code, pc, timestamp,
    dep)`` rows into a one-chunk :class:`ChunkedTrace`."""
    return _column_trace


@pytest.fixture(scope="session")
def small_params() -> WorkloadParams:
    """Small 4-node workload parameters used across trace-level tests."""
    # scale=0.25 shrinks each workload's data set so that several iterations /
    # transaction batches fit in a small trace (coherence misses need history).
    return WorkloadParams(num_nodes=4, seed=7, target_accesses=8_000, scale=0.25)


@pytest.fixture(scope="session")
def small_traces(small_params):
    """One small trace per workload, generated once per test session."""
    from repro.workloads import ALL_WORKLOADS

    return {
        name: get_workload(name, small_params).generate_chunked()
        for name in ALL_WORKLOADS
    }


@pytest.fixture(scope="session")
def medium_trace():
    """A 16-node em3d trace big enough for end-to-end coverage checks."""
    params = WorkloadParams(num_nodes=16, seed=11, target_accesses=60_000)
    return get_workload("em3d", params).generate_chunked()


@pytest.fixture()
def paper_system() -> SystemConfig:
    return SystemConfig.isca2005()


@pytest.fixture()
def paper_tse() -> TSEConfig:
    return TSEConfig.paper_default()


@pytest.fixture()
def replays(monkeypatch):
    """Every ``TSESimulator._run`` call made during the test, in order: one
    entry per replay of a trace (the simulator that replayed it)."""
    from repro.tse.simulator import TSESimulator

    calls = []
    run = TSESimulator._run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(TSESimulator, "_run", counted)
    return calls
