"""Chaos battery: exact-recovery invariants for the fault-tolerant fleet.

Runs one small campaign through a remote-only service + loopback HTTP API +
two lease-protocol workers (threads) under a battery of seeded
:class:`~repro.service.faults.FaultPlan`\\ s — worker killed mid-batch,
results post dropped, leases expired early, a poison job that fails every
attempt — and asserts *exact* invariants, not statistical ones::

    PYTHONPATH=src python benchmarks/chaos_battery.py [--out chaos.json]

Invariants checked per scenario (the battery exits 1 if any fails):

* the campaign completes (degraded for the poison scenario, done otherwise)
  with two workers and injected faults;
* every completed job's stored rows are **bit-identical** (canonical JSON)
  to a no-fault baseline run of the same campaign;
* resubmitting the campaign afterwards recomputes **zero** completed jobs;
* the poison job is quarantined after exactly its retry budget, with the
  failure's traceback captured in the store.

The PR 10 durability headliners extend the battery past fault *plans* to
whole-deployment failures:

* **server_restart_mid_campaign** — the server (HTTP listener + scheduler)
  is hard-killed mid-campaign (a delay on every job after the first keeps
  rows unstored at the kill) and restarted on the same port; the workers'
  retrying transport rides the outage out, the campaign finishes with zero
  lost results, bit-identical to no-fault, and no worker dies;
* **row_corruption_fsck** — stored payloads are silently corrupted (a byte
  flip and a truncated write); ``fsck`` pinpoints exactly the corrupted
  keys, ``--repair`` + resubmit recomputes exactly those;
* **backup_under_load_restore** — an online backup taken while the
  campaign runs restores to a byte-identical table prefix; resubmission on
  the restored store recomputes exactly the rows the snapshot missed.

The JSON artifact records each scenario's outcome plus the deterministic
fired-fault log, so CI uploads show exactly which faults fired and when.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from repro.service import faults
from repro.service.api import make_server
from repro.service.faults import Fault, FaultPlan, WorkerKilled
from repro.service.presets import campaign as preset_campaign
from repro.service.service import Service
from repro.service.store import ResultStore
from repro.service.worker import Worker

ACCESSES = 5_000


def battery_campaign():
    return preset_campaign("fig09", workloads=("db2",),
                           target_accesses=ACCESSES)


def canonical(rows):
    """Canonical JSON for bit-identity comparison of result rows."""
    return json.dumps(rows, sort_keys=True)


class Fleet:
    """Remote-only service + loopback API + two worker threads."""

    def __init__(self, store_path, lease_ttl=1.0, max_attempts=3,
                 start_delays=None, worker_kw=None):
        self.store_path = store_path
        self.start_delays = start_delays or {}
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.worker_kw = worker_kw or {}
        self.service = Service(
            store_path=store_path, max_workers=1, local_compute=False,
            lease_ttl_s=lease_ttl, max_attempts=max_attempts, batch_size=1,
        )
        self.server = make_server(self.service, port=0)
        host, self.port = self.server.server_address[:2]
        self.url = f"http://{host}:{self.port}"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        self.exit_codes = {}
        self.workers = {}
        self._threads = []
        for worker_id in ("w1", "w2"):
            thread = threading.Thread(
                target=self._run_worker, args=(worker_id,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _run_worker(self, worker_id):
        time.sleep(self.start_delays.get(worker_id, 0.0))
        worker = Worker(self.url, worker_id=worker_id, poll_interval=0.05,
                        max_idle_polls=1_000_000, job_timeout_s=None,
                        **self.worker_kw)
        self.workers[worker_id] = worker
        try:
            self.exit_codes[worker_id] = worker.run()
        except WorkerKilled:
            self.exit_codes[worker_id] = 17
        finally:
            worker.close()

    def kill_server(self):
        """Hard-stop the whole server side (HTTP listener + scheduler),
        leaving the workers polling a dead port."""
        self.server.shutdown()
        self.server.server_close()
        self.service.close()

    def restart_server(self):
        """Bring the service back *on the same port*, resuming unfinished
        campaigns from the store — the workers never learn anything
        happened beyond a few retried calls."""
        self.service = Service(
            store_path=self.store_path, max_workers=1, local_compute=False,
            lease_ttl_s=self.lease_ttl, max_attempts=self.max_attempts,
            batch_size=1, resume=True,
        )
        self.server = make_server(self.service, port=self.port)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self):
        # Drain the workers first so they exit 0 instead of grinding
        # through retry budgets against a closing server.
        for worker in self.workers.values():
            worker.request_stop()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        for thread in self._threads:
            thread.join(timeout=15)


def run_scenario(name, tmp_dir, baseline, plan=None, expect_status="done",
                 max_attempts=3, lease_ttl=1.0, start_delays=None):
    """One campaign through the fleet under ``plan``; returns the report."""
    store_path = tmp_dir / f"{name}.sqlite"
    faults.install(plan)
    fleet = Fleet(store_path, lease_ttl=lease_ttl, max_attempts=max_attempts,
                  start_delays=start_delays)
    started = time.time()
    try:
        run = fleet.service.submit(battery_campaign(), wait=True, timeout=300)
    finally:
        faults.install(None)
        fleet.close()
    elapsed = time.time() - started

    store = ResultStore(store_path)
    mismatched, missing = [], []
    for job in run.jobs:
        rows = store.get_result(job.key)
        if rows is None:
            missing.append(job.key)
        elif canonical(rows) != baseline[job.key]:
            mismatched.append(job.key)
    # Read the quarantine record BEFORE resubmitting: a fresh submission
    # deliberately resets the attempt budget (quarantine is per-submission).
    poison_record = store.attempt_record(POISON_KEY)
    # Completed jobs must never be recomputed: resubmit (faults cleared,
    # local compute) and count what actually runs.
    with Service(store_path=store_path, max_workers=1) as local:
        rerun = local.submit(battery_campaign(), wait=True, timeout=300)
    completed = run.total - run.quarantined
    report = {
        "scenario": name,
        "status": run.status,
        "elapsed_s": round(elapsed, 3),
        "total": run.total,
        "computed": run.computed,
        "quarantined": run.quarantined,
        "rows_bit_identical": not mismatched,
        "completed_jobs": completed,
        "lost_results": len(missing) - run.quarantined,
        "recomputed_on_resubmit": rerun.computed,
        "worker_exit_codes": fleet.exit_codes,
        "fired_faults": list(plan.fired) if plan is not None else [],
        "ok": (
            run.status == expect_status
            and not mismatched
            and len(missing) == run.quarantined  # only poison rows missing
            # Resubmission (faults cleared) recomputes exactly the
            # quarantined jobs — zero completed jobs recomputed.
            and rerun.computed == run.quarantined
        ),
    }
    if name == "poison_quarantine":
        record = poison_record
        report["poison_attempts"] = record["attempts"] if record else 0
        report["poison_has_traceback"] = bool(record and record["traceback"])
        report["ok"] = report["ok"] and bool(
            record and record["quarantined"]
            and record["attempts"] == max_attempts
        )
    return report


POISON_KEY = battery_campaign().jobs()[0].key


def _verify_rows(store, jobs, baseline):
    """(mismatched, missing) keys of ``jobs`` in ``store`` vs baseline."""
    mismatched, missing = [], []
    for job in jobs:
        rows = store.get_result(job.key)
        if rows is None:
            missing.append(job.key)
        elif canonical(rows) != baseline[job.key]:
            mismatched.append(job.key)
    return mismatched, missing


def scenario_server_restart(tmp_dir, baseline):
    """PR 10 headline: the server is hard-killed mid-campaign and restarted
    on the same port; the workers' retrying transport rides it out with
    zero lost results and the finished table bit-identical to no-fault."""
    from repro.experiments.cache import clear_cache

    del baseline  # this scenario runs a bigger campaign with its own
    restart_campaign = preset_campaign(
        "fig09", workloads=("db2",), target_accesses=4 * ACCESSES
    )
    base_store = ResultStore(tmp_dir / "server_restart_baseline.sqlite")
    with Service(store_path=base_store.path, max_workers=1) as local:
        base_run = local.submit(restart_campaign, wait=True, timeout=300)
    assert base_run.status == "done"
    restart_baseline = {job.key: canonical(base_store.get_result(job.key))
                        for job in base_run.jobs}
    # The worker threads share this process's result cache: empty it so
    # the fleet computes its jobs instead of settling them from the
    # baseline's entries.
    clear_cache()

    store_path = tmp_dir / "server_restart_mid_campaign.sqlite"
    started = time.time()
    # Every job after the first waits 1-2 s before it computes, so the
    # kill, which follows the first stored row, lands while the other
    # jobs are still unstored.
    plan = FaultPlan([Fault(site="worker.job", action="delay", after=2,
                            count=0, delay=2.0)], seed=5)
    faults.install(plan)
    # Generous per-worker retry budget: the outage must cost a worker a
    # few retried calls, never its life.
    fleet = Fleet(store_path, lease_ttl=30.0,
                  worker_kw=dict(http_retries=6, backoff_base=0.1))
    try:
        run = fleet.service.submit(restart_campaign, wait=False)
        keys = [job.key for job in run.jobs]
        probe = ResultStore(store_path)
        deadline = time.time() + 120
        while not probe.present_keys(keys) and time.time() < deadline:
            time.sleep(0.01)
        stored_at_kill = len(probe.present_keys(keys))
        killed_mid_campaign = stored_at_kill < len(keys)
        fleet.kill_server()
        time.sleep(0.5)  # dead-port window the workers must survive
        fleet.restart_server()
        resumed = list(fleet.service.scheduler.runs.values())
        assert resumed, "restarted service must resume the campaign"
        run2 = resumed[0]
        fleet.service.wait(run2, timeout=300)
    finally:
        faults.install(None)
        fleet.close()
    elapsed = time.time() - started

    store = ResultStore(store_path)
    mismatched, missing = _verify_rows(store, run.jobs, restart_baseline)
    with Service(store_path=store_path, max_workers=1) as local:
        rerun = local.submit(restart_campaign, wait=True, timeout=300)
    workers_rode_through = all(
        code == 0 for code in fleet.exit_codes.values()
    )
    return {
        "scenario": "server_restart_mid_campaign",
        "status": run2.status,
        "elapsed_s": round(elapsed, 3),
        "total": run2.total,
        "stored_at_kill": stored_at_kill,
        "killed_mid_campaign": killed_mid_campaign,
        "rows_bit_identical": not mismatched,
        "lost_results": len(missing),
        "recomputed_on_resubmit": rerun.computed,
        "worker_exit_codes": fleet.exit_codes,
        "fired_faults": list(plan.fired),
        "ok": (
            run2.status == "done"
            and killed_mid_campaign
            and not mismatched and not missing
            and rerun.computed == 0
            and workers_rode_through
        ),
    }


def scenario_row_corruption(tmp_dir, baseline):
    """PR 10 headline: silent bit corruption of stored rows — fsck reports
    exactly the corrupted keys, repair + resubmit recomputes exactly
    those, and the final table is bit-identical to no-fault."""
    store_path = tmp_dir / "row_corruption_fsck.sqlite"
    started = time.time()
    with Service(store_path=store_path, max_workers=1) as service:
        run = service.submit(battery_campaign(), wait=True, timeout=300)
    store = ResultStore(store_path)
    victims = sorted(job.key for job in run.jobs)[:2]
    import sqlite3

    conn = sqlite3.connect(store.path)
    # One byte flip (JSON stays valid: only the checksum can catch it) and
    # one truncated write — both must be pinpointed by key.
    conn.execute("UPDATE results SET rows_json = ? WHERE key = ?",
                 (json.dumps([{"forged": 1}]), victims[0]))
    conn.execute("UPDATE results SET rows_json = ? WHERE key = ?",
                 ('[{"cut": 1', victims[1]))
    conn.commit()
    conn.close()

    found = store.fsck()
    detected = sorted(entry["key"] for entry in found["corrupt"])
    repaired = store.fsck(repair=True).get("repaired", 0)
    with Service(store_path=store_path, max_workers=1) as service:
        rerun = service.submit(battery_campaign(), wait=True, timeout=300)
    mismatched, missing = _verify_rows(store, run.jobs, baseline)
    elapsed = time.time() - started
    return {
        "scenario": "row_corruption_fsck",
        "status": rerun.status,
        "elapsed_s": round(elapsed, 3),
        "total": run.total,
        "corrupted_keys": victims,
        "detected_keys": detected,
        "rows_bit_identical": not mismatched,
        "lost_results": len(missing),
        "recomputed_on_resubmit": rerun.computed,
        "fired_faults": [],
        "ok": (
            rerun.status == "done"
            and detected == victims      # exactly the corrupted keys
            and repaired == len(victims)
            and rerun.computed == len(victims)  # recompute exactly those
            and not mismatched and not missing
            and store.fsck()["ok"]
        ),
    }


def scenario_backup_under_load(tmp_dir, baseline):
    """PR 10 headline: an online backup taken while the campaign runs
    restores to a bit-identical prefix of the store; resubmission on the
    restored store recomputes exactly the rows the snapshot missed."""
    from repro.experiments.cache import clear_cache

    store_path = tmp_dir / "backup_under_load.sqlite"
    backup_path = tmp_dir / "backup_under_load.backup.sqlite"
    started = time.time()
    # Drop the in-process experiment cache so the jobs genuinely compute
    # and the snapshot really races live writes.
    clear_cache()
    with Service(store_path=store_path, max_workers=1, batch_size=1) as service:
        run = service.submit(battery_campaign(), wait=False)
        keys = [job.key for job in run.jobs]
        deadline = time.time() + 120
        while not service.store.present_keys(keys) and time.time() < deadline:
            time.sleep(0.002)
        backup_report = service.store.backup(backup_path)  # under load
        service.wait(run, timeout=300)
    restored = ResultStore.restore(
        backup_path, tmp_dir / "backup_under_load.restored.sqlite"
    )
    fsck_ok = restored.fsck()["ok"]
    # Every row the snapshot caught must be byte-identical in the restored
    # store; rows that landed after the snapshot are simply absent.
    import sqlite3

    def dump(path):
        conn = sqlite3.connect(path)
        try:
            return conn.execute(
                "SELECT key, rows_json, checksum FROM results ORDER BY key"
            ).fetchall()
        finally:
            conn.close()

    tables_identical = dump(backup_path) == dump(restored.path)
    snapshot_keys = restored.present_keys(keys)
    with Service(store_path=restored.path, max_workers=1) as service:
        rerun = service.submit(battery_campaign(), wait=True, timeout=300)
    mismatched, missing = _verify_rows(restored, run.jobs, baseline)
    elapsed = time.time() - started
    return {
        "scenario": "backup_under_load_restore",
        "status": rerun.status,
        "elapsed_s": round(elapsed, 3),
        "total": run.total,
        "snapshot_results": backup_report["results"],
        "snapshot_partial": backup_report["results"] < run.total,
        "rows_bit_identical": not mismatched,
        "lost_results": len(missing),
        "recomputed_on_resubmit": rerun.computed,
        "fired_faults": [],
        "ok": (
            rerun.status == "done"
            and fsck_ok and tables_identical
            # The resubmission recomputes exactly what the snapshot missed.
            and rerun.computed == run.total - len(snapshot_keys)
            and not mismatched and not missing
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    import tempfile
    from pathlib import Path

    tmp_dir = Path(tempfile.mkdtemp(prefix="chaos-battery-"))

    # No-fault baseline: the bit-identity reference for every scenario.
    baseline_store = tmp_dir / "baseline.sqlite"
    with Service(store_path=baseline_store, max_workers=1) as service:
        base_run = service.submit(battery_campaign(), wait=True, timeout=300)
    assert base_run.status == "done", "baseline run must succeed"
    store = ResultStore(baseline_store)
    baseline = {job.key: canonical(store.get_result(job.key))
                for job in base_run.jobs}

    scenarios = [
        ("no_fault", dict(plan=None)),
        ("worker_killed_mid_batch", dict(
            plan=FaultPlan([Fault(site="worker.job", action="kill",
                                  match="w1:")], seed=1),
            start_delays={"w2": 0.5},
        )),
        ("dropped_results_post", dict(
            plan=FaultPlan([Fault(site="worker.post_results",
                                  action="drop")], seed=2),
        )),
        ("early_lease_expiry", dict(
            plan=FaultPlan([Fault(site="scheduler.sweep", action="expire",
                                  count=2)], seed=3),
            lease_ttl=30.0,
        )),
        ("poison_quarantine", dict(
            plan=FaultPlan([Fault(site="worker.job", action="raise",
                                  match=POISON_KEY, count=0)], seed=4),
            expect_status="failed", max_attempts=2,
        )),
    ]

    reports = []
    for name, kwargs in scenarios:
        reports.append(run_scenario(name, tmp_dir, baseline, **kwargs))
    # PR 10 durability headliners: restart, corruption, backup-under-load.
    for durability_scenario in (
        scenario_server_restart,
        scenario_row_corruption,
        scenario_backup_under_load,
    ):
        reports.append(durability_scenario(tmp_dir, baseline))
    for report in reports:
        flag = "ok" if report["ok"] else "FAILED"
        print(f"[{flag:>6}] {report['scenario']}: status={report['status']} "
              f"bit_identical={report['rows_bit_identical']} "
              f"lost={report['lost_results']} "
              f"recomputed_on_resubmit={report['recomputed_on_resubmit']} "
              f"({report['elapsed_s']}s)")

    payload = {
        "campaign_jobs": base_run.total,
        "scenarios": reports,
        "ok": all(report["ok"] for report in reports),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report -> {args.out}")
    if not payload["ok"]:
        print("chaos battery FAILED", file=sys.stderr)
        return 1
    print(f"chaos battery ok: {len(reports)} scenarios, "
          f"{base_run.total} jobs each, zero lost results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
