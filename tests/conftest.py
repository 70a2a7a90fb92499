"""Shared fixtures: small deterministic traces, systems and configurations."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.coherence.directory import Directory
from repro.common.chunk import ChunkedTrace, TraceChunk
from repro.common.config import SystemConfig, TSEConfig
from repro.tse.engine import TemporalStreamingSystem
from repro.tse.layout import SLOT_BYTEORDER, SLOT_BYTES
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


def _tse_system(num_nodes=2, traffic=None, **overrides):
    fields = dict(
        cmob_capacity=1024, svb_entries=16, stream_queues=4,
        stream_lookahead=4, compared_streams=2,
    )
    fields.update(overrides)
    config = TSEConfig(**fields)
    directory = Directory(num_nodes, config.cmob_pointers_per_block)
    return TemporalStreamingSystem(num_nodes, config, directory, traffic=traffic)


@pytest.fixture(scope="session")
def tse_system():
    """Builder for small exact-plane systems: ``tse_system(num_nodes=2,
    traffic=None, **fields)``.  Lookahead 4 (stream windows of 8, a refill
    threshold of 4), two compared streams, four queues, a 16-entry SVB and a
    1024-entry CMOB; keyword arguments override any ``TSEConfig`` field."""
    return _tse_system


def _cmob_window(cmob, start, count):
    dest = bytearray()
    n = cmob.extend_into(dest, start, count)
    assert len(dest) == n * SLOT_BYTES
    return [
        int.from_bytes(dest[i:i + SLOT_BYTES], SLOT_BYTEORDER)
        for i in range(0, len(dest), SLOT_BYTES)
    ]


@pytest.fixture(scope="session")
def cmob_window():
    """Reader ``cmob_window(cmob, start, count)``: the addresses of the
    window ``CMOB.extend_into`` copies, as a list."""
    return _cmob_window


def _put_result(store, key, job_id, experiment, workload, rows):
    lease_id = store.create_lease("seeder", [key], ttl=60.0)
    store.finish_lease(lease_id, results=[(key, job_id, experiment, workload, rows)])


@pytest.fixture(scope="session")
def put_result():
    """Storer ``put_result(store, key, job_id, experiment, workload, rows)``:
    one job's rows through the settle path a lease holder takes
    (``create_lease`` then ``finish_lease``)."""
    return _put_result


@pytest.fixture(scope="session")
def battery():
    """The ``benchmarks/reference_battery.py`` module (which lives outside
    any package): its configurations and cell functions."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference_battery.py"
    spec = importlib.util.spec_from_file_location("reference_battery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def battery_configs(battery):
    """The reference battery's TSE configurations, by label."""
    return dict(battery.CONFIGS)


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
