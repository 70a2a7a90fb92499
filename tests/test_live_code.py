"""Every function of the simulator and the service runs on a user surface.

One profiled run drives the user surfaces in this process:

* a small replay matrix: exact bare, outcome-recording and
  traffic-accounted replays of em3d and db2 under three of the reference
  battery's configurations, one bare fast-plane replay, one ``run_chunks``
  over streamed chunks, a traffic-accounted and a ladder of bare
  ``run_tse_on_trace`` calls, one ``TimingSimulator.compare`` and one
  ``trace_consumptions``;
* one small ``run_sweep`` over every workload for the ``SPEC`` of each
  fig06–fig14, Table 3 and warm-state module;
* one moldyn trace large enough to rebuild its neighbour list;
* the examples' ``main`` at small sizes, and the reference battery's cells
  that the matrix lacks;
* the service: CLI verbs through ``cli.main``, an in-process server with a
  remote worker thread under a fault plan that fires each action once, a
  cancel over HTTP and a drain.

The test fails on any function defined in a module of the packages below
that never ran, naming its qualified name, so a method that only tests
reach cannot creep back in.  ``ALLOWED`` names the few functions that only
a CLI, a subprocess or a benchmark reaches, each with its reason, and the
test also fails on an entry that ran or no longer exists.  Modules are
found by walking the packages, so a new module is covered without editing
a list; ``repro.lint`` stays out (its CLI options are driven by
``tests/test_lint.py``).  Everything runs in this process, with the
profile installed on every thread before the run starts any: the
``max_workers=1`` arguments and a one-CPU affinity set keep work off
unprofiled pool processes.  The run starts from empty caches and memos,
so what earlier tests in the session computed hides no function from it.
Profiling rather than grepping tells same-named methods of different
classes apart.  A function is identified by its first line and name, so
the check needs no ``co_qualname`` (Python 3.11).
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import pathlib
import pkgutil
import sqlite3
import sys
import threading
import types
import urllib.error
import urllib.request

import pytest

from repro.common.chunk import ChunkedTrace
from repro.experiments.runner import trace_for

PACKAGES = (
    "common", "workloads", "coherence", "interconnect", "tse", "node", "system",
    "prefetch", "analysis", "experiments", "service",
)

_FIG_MODULES = (
    "fig06_correlation", "fig07_compared_streams", "fig08_lookahead", "fig09_svb",
    "fig10_cmob", "fig11_bandwidth", "fig12_comparison", "fig13_stream_length",
    "fig14_performance", "table3_timeliness", "warm_state",
)

_CLI = "the module's command line (python -m) reaches it"
_AT_IMPORT = "runs once, when its module is imported, before any profile starts"
_ABSTRACT = "abstract: every subclass overrides it"
_OLD_STORE = "opening a store an older build wrote runs it (tests/test_durability.py)"

#: ``(module, qualified name)`` of each function allowed never to run in the
#: profiled run, with the reason it stays.
ALLOWED: dict = {
    **{(f"repro.experiments.{name}", "run"): "the benchmark suite calls it; the "
       "profiled run drives the module's SPEC through run_sweep"
       for name in _FIG_MODULES},
    **{(f"repro.experiments.{name}", "main"): _CLI for name in _FIG_MODULES},
    ("repro.experiments.runner", "sweep_main"): "each fig module's main() calls it",
    ("repro.experiments.cache", "ResultCache.__init__"): _AT_IMPORT,
    ("repro.workloads.base", "register_workload"): _AT_IMPORT,
    ("repro.workloads.base", "register_workload.<locals>.decorator"): _AT_IMPORT,
    ("repro.common.config", "bench_accesses"): "benchmarks/conftest.py reads it",
    ("repro.common.stats", "Histogram.mean"):
        "perfbench's sweep and benchmarks/validate_fast_mode.py read it",
    ("repro.common.sqlitedb", "locked_error"):
        "runs only when a write outwaits sqlite's 30 s busy timeout",
    ("repro.service.cli", "_cmd_serve"): "CI's serve smokes run it as a subprocess",
    ("repro.service.cli", "_cmd_serve.<locals>._drain_and_stop"):
        "SIGTERM to a serve subprocess (CI's restart smoke) runs it",
    ("repro.service.cli", "_cmd_serve.<locals>._on_sigterm"):
        "SIGTERM to a serve subprocess (CI's restart smoke) runs it",
    ("repro.service.cli", "_cmd_work"): "CI's fleet smoke runs workers as subprocesses",
    ("repro.service.worker", "run_worker"): "CI's fleet smoke runs workers as subprocesses",
    ("repro.service.worker", "run_worker.<locals>.<lambda>"):
        "SIGTERM to a worker subprocess runs it",
    ("repro.service.faults", "FaultPlan.load"):
        "work --fault-plan (CI's chaos smoke) reads a plan from a file",
    ("repro.service.faults", "FaultPlan.from_dict"):
        "work --fault-plan (CI's chaos smoke) reads a plan from a file",
    ("repro.service.store", "ResultStore.attempt_record"):
        "benchmarks/chaos_battery.py reads the poison job's attempts",
    ("repro.workloads.engine", "PhasedWorkload.iteration"): _ABSTRACT,
    ("repro.workloads.engine", "RequestWorkload.request"): _ABSTRACT,
    ("repro.workloads.engine", "MixtureWorkload.build"): _ABSTRACT,
    ("repro.workloads.engine", "MixtureWorkload.batches"): _ABSTRACT,
    ("repro.prefetch.base", "Prefetcher.on_consumption"): _ABSTRACT,
    ("repro.service.store", "_migrate_to_2"): _OLD_STORE,
    ("repro.service.store", "_migrate_to_3"): _OLD_STORE,
    ("repro.service.store", "_migrate_to_4"): _OLD_STORE,
    ("repro.service.store", "ResultStore._ensure_schema.<locals>.apply"): _OLD_STORE,
}

WORKLOADS = ("em3d", "db2")
CONFIG_LABELS = ("paper", "four_streams", "tiny_cmob_wrap")
ACCESSES = 20_000
NUM_NODES = 16
#: Trace size of the figure sweeps and the examples.
SMALL = 2_000
#: The smallest size tried at which moldyn rebuilds its neighbour list
#: (``PartitionedSweep.drift``) at seed 42.
MOLDYN_REBUILD_ACCESSES = 150_000

#: Code objects that are not functions in their own right.
_SYNTHETIC = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def covered_modules() -> dict:
    """Module name -> source path, for every module of :data:`PACKAGES`,
    each imported so that what runs at import is done before a profile."""
    paths = {}
    for name in PACKAGES:
        package = importlib.import_module(f"repro.{name}")
        paths[package.__name__] = package.__file__
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
            paths[info.name] = importlib.import_module(info.name).__file__
    return paths


def defined_functions(path: str) -> dict:
    """Every function the source file defines: ``(first line, name)``
    mapped to its qualified name."""
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


def _forget_memos(modules) -> None:
    """Empty the process-wide memos that earlier tests in the session may
    have filled, since a memo hit skips the function that fills it: every
    ``lru_cache`` in the covered modules and the stream engine's table of
    window unpackers."""
    from repro.tse import stream_engine

    for name in modules:
        for value in vars(sys.modules[name]).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    stream_engine._UNPACKERS.clear()


def _fresh(workload: str) -> ChunkedTrace:
    """A trace object with no memoized code columns or replay records."""
    return ChunkedTrace.from_payload(
        trace_for(workload, ACCESSES, 42, NUM_NODES).to_payload()
    )


def _replay_matrix(configs) -> None:
    from repro.coherence import protocol
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


def _figure_sweeps() -> None:
    from repro.experiments.runner import run_sweep
    from repro.workloads import ALL_WORKLOADS

    for name in _FIG_MODULES:
        spec = importlib.import_module(f"repro.experiments.{name}").SPEC
        # Warm state's default ramp is 40x this window; a short one runs
        # the same replay.
        shrink = {"warm_accesses": SMALL} if name == "warm_state" else {}
        run_sweep(spec, ALL_WORKLOADS, target_accesses=SMALL, max_workers=1, **shrink)


def _moldyn_rebuild() -> None:
    from repro.workloads import get_workload
    from repro.workloads.base import WorkloadParams

    params = WorkloadParams(num_nodes=NUM_NODES, seed=42,
                            target_accesses=MOLDYN_REBUILD_ACCESSES)
    get_workload("moldyn", params).generate_chunked()


def _load_script(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"_live_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _examples(tmp: pathlib.Path, monkeypatch) -> None:
    """Each example's ``main`` at :data:`SMALL` accesses."""
    argv = {
        "prefetcher_shootout": ["db2"],
        "opportunity_study": ["db2"],
        "design_space_sweep": ["db2"],
        "service_campaign": [str(tmp / "example.sqlite")],
    }
    for path in sorted((_ROOT / "examples").glob("*.py")):
        example = _load_script(path)
        monkeypatch.setattr(example, "TARGET_ACCESSES", SMALL)
        monkeypatch.setattr(sys, "argv", [path.name, *argv.get(path.stem, [])])
        with contextlib.redirect_stdout(io.StringIO()):
            example.main()


def _battery_cells(battery) -> None:
    """The reference battery's cells that the replay matrix lacks."""
    battery.ladder_cell("db2")
    battery.streamed_traffic_cell("db2")
    battery.traffic_cell("db2", num_nodes=8, interconnect=None)
    battery.warm_cell("em3d")
    battery.shared_cell("db2")
    battery.prefetch_cell("db2")
    battery.objects_cell("em3d")


def _http(url: str, path: str, body=None) -> tuple:
    """One API call: its status code and its JSON body (``None`` for an
    error status or a body that is not JSON)."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            status, raw = reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, None
    return status, json.loads(raw) if raw.startswith(b"{") else None


def _quiet(call, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return call(*args)


def _local_service(store: str, tmp: pathlib.Path) -> None:
    """The CLI verbs on a local store, with one corrupt row to repair."""
    from repro.service import cli

    def run(*args: str) -> int:
        return _quiet(cli.main, ["--store", store, *args])

    small = ["--workloads", "db2", "--accesses", str(SMALL), "--workers", "1"]
    assert run("presets") == 0
    assert run("submit", "fig09", *small) == 0
    assert run("submit", "fig10", *small, "--no-wait") == 0
    assert run("status") == 0
    assert run("status", "1") == 0
    assert run("results", "1") == 0
    with contextlib.closing(sqlite3.connect(store)) as conn, conn:
        conn.execute("UPDATE results SET rows_json = '[]' WHERE rowid = 1")
    assert run("fsck") == 1
    assert run("fsck", "--repair") == 0
    assert run("backup", str(tmp / "backup.sqlite")) == 0
    assert _quiet(cli.main, ["--store", str(tmp / "restored.sqlite"), "restore",
                             str(tmp / "backup.sqlite")]) == 0


def _fleet(tmp: pathlib.Path) -> None:
    """A remote-only server with one worker thread: a campaign under a fault
    plan that fires each action, the remote CLI verbs and API reads, a
    graceful worker stop, a cancel, a drain, a crash-resume and a worker
    that outlives its server."""
    from repro.service import cli, faults
    from repro.service.api import make_server
    from repro.service.faults import ALL_ACTIONS, Fault, FaultPlan
    from repro.service.presets import campaign
    from repro.service.service import Service
    from repro.service.worker import Worker

    store = tmp / "fleet.sqlite"
    service = Service(store_path=store, max_workers=1, local_compute=False,
                      lease_ttl_s=0.5)
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
    lock = threading.Lock()
    workers: list = []

    def work() -> None:
        # A soft kill ends one worker; the thread starts the next, until
        # the workers are asked to stop.
        while True:
            with lock:
                if workers and workers[-1].stop_requested:
                    return
                worker = Worker(url, worker_id=f"w{len(workers)}", poll_interval=0.02,
                                job_timeout_s=60.0)
                workers.append(worker)
            try:
                worker.run()
            except faults.WorkerKilled:
                pass
            finally:
                worker.close()

    working = threading.Thread(target=work, daemon=True)
    working.start()
    spec = campaign("fig09", workloads=("em3d", "db2"), target_accesses=SMALL)
    plan = FaultPlan([
        Fault(site="transport.connect", action="drop"),
        Fault(site="worker.lease", action="delay", delay=0.01),
        # Job 1 outsleeps its lease, so the heartbeat before job 2 reads 410.
        Fault(site="worker.job", action="delay", delay=1.6),
        Fault(site="worker.job", action="raise", count=0, match=spec.jobs()[-1].key),
        Fault(site="worker.job", action="kill", after=2),
        Fault(site="worker.post_results", action="duplicate"),
        Fault(site="worker.post_results", action="drop"),
        Fault(site="scheduler.sweep", action="expire"),
    ])
    faults.install(plan)
    try:
        # The poison job exhausts its attempts: the campaign degrades.
        assert service.submit(spec, wait=True, timeout=120).status == "failed"
    finally:
        faults.install(None)
    assert {fired["action"] for fired in plan.fired} == set(ALL_ACTIONS)

    def run(*args: str) -> int:
        return _quiet(cli.main, [*args, "--url", url])

    assert run("submit", "fig09", "--workloads", "em3d,db2", "--accesses", str(SMALL)) == 0
    assert run("status") == 0
    assert run("status", "2") == 0
    assert run("status", "2", "--follow") == 0
    for path in ("/healthz", "/presets", "/campaigns", "/workers", "/metrics",
                 "/metrics?format=json", "/results?workload=db2",
                 f"/jobs/{spec.jobs()[0].job_id}", "/campaigns/2/events?follow=0"):
        assert _http(url, path)[0] == 200, path
    assert _http(url, "/campaigns/99")[0] == 404
    with lock:
        workers[-1].request_stop()
    working.join(timeout=60)
    assert not working.is_alive()

    # A cancelled campaign's batch is dropped when a worker next polls.
    queued = {"workloads": ["db2"], "target_accesses": SMALL}
    _, cancelled = _http(url, "/campaigns", {"preset": "fig08", **queued})
    assert _http(url, f"/campaigns/{cancelled['campaign_id']}/cancel", {}) == (
        200, {"cancelled": True})
    assert Worker(url, worker_id="late", poll_interval=0.01, max_idle_polls=1).run() == 0

    # Drain with a batch queued, stop, and resume it on a local slot.
    _http(url, "/campaigns", {"preset": "fig07", **queued})
    assert service.drain(deadline_s=5.0)["queued_batches"] == 1
    server.shutdown()
    server.server_close()
    service.close()
    with Service(store_path=store, max_workers=1, resume=True) as resumed:
        for resumed_run in list(resumed.scheduler.runs.values()):
            assert resumed.wait(resumed_run, timeout=120).status == "done"
    # A worker whose server is gone gives up.
    assert Worker(url, poll_interval=0.01, http_retries=1).run() == 1


def _cache_cli(store: str, *args: str) -> None:
    from repro.experiments import cache

    assert _quiet(cache.main, ["--store", store, *args]) == 0


def profiled_run(battery, tmp: pathlib.Path, monkeypatch) -> dict:
    """Per covered source file, the ``(first line, name)`` of the functions
    that ran on the surfaces."""
    modules = covered_modules()
    files = {path: set() for path in modules.values()}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen = files.get(code.co_filename)
            if seen is not None:
                seen.add((code.co_firstlineno, code.co_name))

    _forget_memos(modules)
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _cache_cli(str(tmp / "store.sqlite"), "--clear")
        _replay_matrix([dict(battery.CONFIGS)[label] for label in CONFIG_LABELS])
        _figure_sweeps()
        _moldyn_rebuild()
        _examples(tmp, monkeypatch)
        _battery_cells(battery)
        store = str(tmp / "store.sqlite")
        _local_service(store, tmp)
        _fleet(tmp)
        _cache_cli(store, "--stats", "--gc", "--keep-days", "30", "--clear")
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
        os.sched_setaffinity(0, affinity)
    return files


@pytest.fixture(scope="module")
def ran(battery, tmp_path_factory) -> dict:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return profiled_run(battery, tmp_path_factory.mktemp("live"), monkeypatch)


def test_every_function_runs_on_a_user_surface(ran):
    never = {
        (module, qualname)
        for module, path in covered_modules().items()
        for key, qualname in defined_functions(path).items()
        if key not in ran[path]
    }
    unexplained = sorted(f"{module}:{name}" for module, name in never - ALLOWED.keys())
    assert not unexplained, "never ran on a user surface: " + ", ".join(unexplained)
    stale = sorted(f"{module}:{name}" for module, name in ALLOWED.keys() - never)
    assert not stale, "allow-listed but ran, or gone: " + ", ".join(stale)


def test_every_allowed_entry_has_a_reason():
    assert all(isinstance(reason, str) and reason for reason in ALLOWED.values())
