"""Every function of the TSE, coherence and traffic modules runs in a replay.

A small replay matrix runs under :func:`sys.setprofile`: exact bare,
outcome-recording and traffic-accounted replays of em3d and db2 under three
of the reference battery's configurations, one bare fast-plane replay, one
``run_chunks`` over streamed chunks, one traffic-accounted
``run_tse_on_trace`` on the default interconnect, one bare
``run_tse_on_trace`` ladder of SVB sizes on one trace object, one
``TimingSimulator.compare`` and one ``trace_consumptions``.  The test fails
on any function defined in the modules below that never ran, naming its
qualified name, so a method that only tests reach (a second copy of code
the replay inlines, or an accessor nothing reads) cannot creep back in.
Profiling rather than grepping tells same-named methods of different
classes apart: ``StreamEngine.on_svb_hit`` is not
``TemporalStreamingSystem.on_svb_hit``.  A function is identified by its
first line and name, so the check needs no ``co_qualname`` (Python 3.11).
"""

from __future__ import annotations

import inspect
import pathlib
import sys
import types

import pytest

from repro.coherence import directory, protocol
from repro.common.chunk import ChunkedTrace
from repro.experiments.runner import trace_for
from repro.interconnect import network
from repro.tse import cmob, engine, fast_engine, simulator, stream_engine, stream_queue, svb

MODULES = (
    cmob, svb, stream_queue, stream_engine, engine, fast_engine, simulator,
    directory, protocol, network,
)

#: ``(module, qualified name)`` of each function allowed never to run in the
#: matrix, with the reason it stays.
ALLOWED: dict = {}

WORKLOADS = ("em3d", "db2")
CONFIG_LABELS = ("paper", "four_streams", "tiny_cmob_wrap")
ACCESSES = 20_000
NUM_NODES = 16

#: Code objects that are not functions in their own right.
_SYNTHETIC = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def defined_functions(module) -> dict:
    """Every function the module's source defines: ``(first line, name)``
    mapped to its qualified name."""
    path = module.__file__
    stack = [("", compile(pathlib.Path(path).read_text(), path, "exec"))]
    functions = {}
    while stack:
        prefix, code = stack.pop()
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            qualname = prefix + const.co_name
            # Class bodies are not optimized code; comprehensions are
            # parts of the function that contains them.
            if not const.co_flags & inspect.CO_OPTIMIZED:
                stack.append((qualname + ".", const))
                continue
            if const.co_name not in _SYNTHETIC:
                functions[(const.co_firstlineno, const.co_name)] = qualname
            stack.append((qualname + ".<locals>.", const))
    return functions


def _fresh(workload: str) -> ChunkedTrace:
    """A trace object with no memoized code columns or replay records."""
    return ChunkedTrace.from_payload(
        trace_for(workload, ACCESSES, 42, NUM_NODES).to_payload()
    )


def _replay_matrix(configs) -> None:
    from repro.common.config import InterconnectConfig, TSEConfig
    from repro.system.timing import TimingSimulator
    from repro.tse.simulator import TSESimulator, run_tse_on_trace
    from repro.workloads import get_workload
    from repro.workloads.base import WorkloadParams

    interconnect = InterconnectConfig(width=4, height=4)
    for workload in WORKLOADS:
        for config in configs:
            for options in (
                {},
                {"record_outcomes": True},
                {"account_traffic": True, "interconnect_config": interconnect},
            ):
                replay = TSESimulator(NUM_NODES, tse_config=config, **options)
                replay.run(_fresh(workload), warmup_fraction=0.3)
                replay.tse.stats.snapshot()
    paper = TSEConfig.paper_default()
    TSESimulator(NUM_NODES, paper, mode="fast").run(_fresh("db2"), warmup_fraction=0.3)
    params = WorkloadParams(num_nodes=NUM_NODES, seed=42, target_accesses=ACCESSES)
    TSESimulator(NUM_NODES, paper).run_chunks(
        get_workload("db2", params).stream_chunks(chunk_size=4096),
        name="db2", warmup_accesses=6_000,
    ).as_dict()
    run_tse_on_trace(_fresh("em3d"), paper, account_traffic=True)
    ladder = _fresh("db2")
    for entries in (8, 32, 128):
        run_tse_on_trace(ladder, paper.with_(svb_entries=entries))
    TimingSimulator().compare(_fresh("em3d"))
    protocol.trace_consumptions(_fresh("db2"))


@pytest.fixture(scope="module")
def ran(battery_configs) -> dict:
    """Per module file, the ``(first line, name)`` of the functions that ran."""
    files = {module.__file__: set() for module in MODULES}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen = files.get(code.co_filename)
            if seen is not None:
                seen.add((code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _replay_matrix([battery_configs[label] for label in CONFIG_LABELS])
    finally:
        sys.setprofile(previous)
    return files


def test_every_function_runs_in_a_replay(ran):
    never = {
        (module.__name__, qualname)
        for module in MODULES
        for key, qualname in defined_functions(module).items()
        if key not in ran[module.__file__]
    }
    unexplained = sorted(f"{module}:{name}" for module, name in never - ALLOWED.keys())
    assert not unexplained, "never ran in the replay matrix: " + ", ".join(unexplained)
    stale = sorted(f"{module}:{name}" for module, name in ALLOWED.keys() - never)
    assert not stale, "allow-listed but ran, or gone: " + ", ".join(stale)
