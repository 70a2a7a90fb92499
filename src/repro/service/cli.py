"""The ``python -m repro.service`` command line.

Subcommands::

    submit PRESET   submit a campaign; in-process runs always complete
                    before exit (use serve + --url for fire-and-forget queueing)
    status [ID]     campaign listing / one campaign's progress (the view
                    ``GET /campaigns/<id>`` serves);
                    ``--follow`` tails the campaign's SSE event stream
                    (one line per event, resumable with ``--after``)
    results ID      render a stored campaign's table, partial or whole
                    (no recompute; ``status ID`` gives its completeness)
    serve           run the HTTP JSON API (``--remote-only`` parks all
                    compute until workers lease it); SIGTERM drains
                    gracefully: stop granting leases, settle in-flight
                    batches under ``--drain-deadline``, checkpoint, exit
    work            run one lease-protocol worker against a serve instance
                    (SIGTERM: finish the current job, post, exit 0)
    presets         list available presets
    fsck            verify store integrity (checksums + payload JSON +
                    sqlite integrity_check); ``--repair`` deletes exactly
                    the corrupt rows so resubmission recomputes them
    backup DEST     online store backup via sqlite's backup API
    restore SRC     validate a backup and install it as the store

``submit`` / ``status`` run against the local store by default; pass
``--url http://host:port`` to drive a running ``serve`` instance instead.
Remote calls go through the retrying transport
(:mod:`repro.service.transport`) with its default per-attempt timeout and
retry budget.
A preset submitted with ``--wait`` (the default) prints a table
bit-identical to the experiment module's own CLI — e.g. ``submit fig12``
matches ``python -m repro.experiments.fig12_comparison`` — while completed
points are served from the store without recomputation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service import presets
from repro.service.service import Service, render_stored_campaign, stored_progress
from repro.service.store import ResultStore, default_store_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Submit, query, and serve TSE simulation campaigns.",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="result store path (default: REPRO_SERVICE_STORE or "
        f"{default_store_path()})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="submit a campaign preset")
    submit.add_argument("preset", help="preset name (see 'presets')")
    submit.add_argument("--workloads", default=None,
                        help="comma-separated workload subset")
    submit.add_argument("--accesses", type=int, default=None,
                        help="trace size (target accesses) override")
    submit.add_argument("--seed", type=int, default=42)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--workers", type=int, default=None,
                        help="scheduler workers (default: the CPUs this "
                        "process may run on)")
    submit.add_argument("--no-wait", action="store_true",
                        help="with --url: return after queueing on the server; "
                        "locally: run to completion but print progress JSON "
                        "instead of the table")
    submit.add_argument("--url", default=None,
                        help="submit to a running server instead of in-process")

    status = commands.add_parser("status", help="campaign progress")
    status.add_argument("campaign", nargs="?", type=int, default=None)
    status.add_argument("--url", default=None)
    status.add_argument("--follow", action="store_true",
                        help="tail the campaign's SSE event stream, one "
                        "line per event, until it finishes (needs --url "
                        "and a campaign id)")
    status.add_argument("--after", type=int, default=0,
                        help="with --follow: resume from this event "
                        "sequence number (Last-Event-ID)")

    results = commands.add_parser("results", help="render a stored campaign")
    results.add_argument("campaign", type=int)

    serve = commands.add_parser("serve", help="run the HTTP JSON API")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--workers", type=int, default=None,
                       help="local slots (default: the CPUs this process "
                       "may run on)")
    serve.add_argument("--no-resume", action="store_true",
                       help="do not resume unfinished campaigns on startup")
    serve.add_argument("--remote-only", action="store_true",
                       help="disable local compute: queued batches wait for "
                       "remote workers (the 'work' subcommand) to lease them")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       help="worker lease TTL seconds (default: 60)")
    serve.add_argument("--drain-deadline", type=float, default=30.0,
                       help="SIGTERM graceful-drain deadline seconds: stop "
                       "granting leases, wait this long for in-flight "
                       "batches to settle, checkpoint, exit")

    work = commands.add_parser(
        "work", help="run one lease-protocol worker against a serve instance"
    )
    work.add_argument("--url", required=True,
                      help="base URL of the serve instance to lease from")
    work.add_argument("--id", default=None,
                      help="worker id (default: <hostname>-<pid>)")
    work.add_argument("--max-jobs", type=int, default=None,
                      help="cap jobs per lease (server splits bigger batches)")
    work.add_argument("--poll-interval", type=float, default=1.0,
                      help="seconds between polls when the queue is empty")
    work.add_argument("--job-timeout", type=float, default=None,
                      help="per-job execution timeout seconds (default: "
                      "none)")
    work.add_argument("--max-idle-polls", type=int, default=None,
                      help="exit 0 after N consecutive empty polls "
                      "(drain-and-stop mode for CI); default: poll forever")
    work.add_argument("--fault-plan", default=None, metavar="PATH",
                      help="install a JSON FaultPlan before starting "
                      "(chaos testing only)")

    commands.add_parser("presets", help="list available campaign presets")

    fsck = commands.add_parser(
        "fsck", help="verify store integrity (checksums, payload JSON, "
        "sqlite integrity_check)"
    )
    fsck.add_argument("--repair", action="store_true",
                      help="delete exactly the corrupt result rows; campaign "
                      "membership survives, so resubmission recomputes "
                      "exactly the damaged points")

    backup = commands.add_parser(
        "backup", help="online store backup (sqlite backup API; safe while "
        "a serve instance is writing)"
    )
    backup.add_argument("dest", metavar="DEST", help="backup file to write")

    restore = commands.add_parser(
        "restore", help="validate a backup and install it as the store "
        "(run offline — not against a live serve)"
    )
    restore.add_argument("backup", metavar="SRC", help="backup file to restore")
    return parser


def _http(url: str, path: str, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One CLI call through the retrying transport, with its default
    timeout and retry budget: a server restart mid-call retries instead of
    killing the command."""
    from repro.service.transport import HttpTransport

    transport = HttpTransport(url)
    if payload is None:
        return transport.get(path)
    return transport.post(path, payload)


def _cmd_submit(args: argparse.Namespace) -> int:
    workloads: Optional[List[str]] = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads else None
    )
    if args.url:
        payload = {
            "preset": args.preset,
            "seed": args.seed,
            "priority": args.priority,
            "wait": not args.no_wait,
        }
        if workloads:
            payload["workloads"] = workloads
        if args.accesses is not None:
            payload["target_accesses"] = args.accesses
        reply = _http(args.url, "/campaigns", payload)
        if "table" in reply:
            print(reply["table"])
        else:
            print(json.dumps(reply, indent=2))
        return 0
    campaign = presets.campaign(
        args.preset, workloads=workloads, target_accesses=args.accesses,
        seed=args.seed, priority=args.priority,
    )
    with Service(store_path=args.store, max_workers=args.workers) as service:
        # In-process submission always completes before exit: closing the
        # service with queued work would abandon it (there is no resident
        # scheduler to pick it up — that's what `serve` + --url is for).
        run = service.submit(campaign, wait=True)
        if args.no_wait:
            print(json.dumps(run.progress(), indent=2))
        else:
            print(service.render(run))
        return 1 if run.failed else 0


def _open_store_readonly(path) -> Optional[ResultStore]:
    """Open an existing store for a read-only subcommand, or report its
    absence — never create one as a query side effect."""
    if not ResultStore.exists(path):
        resolved = path if path is not None else default_store_path()
        print(f"no store at {resolved}", file=sys.stderr)
        return None
    return ResultStore(path)


def format_event_line(event: Dict[str, Any]) -> str:
    """One-line rendering of a followed SSE event (stable enough to grep)."""
    data = event.get("data") or {}
    parts = [f"[{event.get('id', '?'):>5}]", f"{event['event']:<18}"]
    for field in ("workload", "plane", "worker", "lease_id", "attempt",
                  "status", "total", "cached", "computed", "failed"):
        if field in data and data[field] is not None:
            parts.append(f"{field}={data[field]}")
    if "job_id" in data:
        parts.append(f"job={data['job_id']}")
    if "error" in data and data["error"]:
        parts.append(f"error={str(data['error'])[:80]}")
    return " ".join(parts)


def _cmd_status(args: argparse.Namespace) -> int:
    if args.follow:
        if not args.url or args.campaign is None:
            print("status --follow needs --url and a campaign id",
                  file=sys.stderr)
            return 2
        from repro.service.events import follow_campaign

        failed = False
        for event in follow_campaign(args.url, args.campaign,
                                     last_event_id=args.after):
            print(format_event_line(event), flush=True)
            if event["event"] == "campaign.finished":
                failed = (event.get("data") or {}).get("status") != "done"
        return 1 if failed else 0
    if args.url:
        path = "/campaigns" if args.campaign is None else f"/campaigns/{args.campaign}"
        print(json.dumps(_http(args.url, path), indent=2))
        return 0
    store = _open_store_readonly(args.store)
    if store is None:
        return 1
    if args.campaign is None:
        print(json.dumps({"campaigns": store.campaigns()}, indent=2, default=str))
        return 0
    progress = stored_progress(store, args.campaign)
    if progress is None:
        print(f"no campaign {args.campaign}", file=sys.stderr)
        return 1
    print(json.dumps(progress, indent=2))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    store = _open_store_readonly(args.store)
    if store is None:
        return 1
    try:
        print(render_stored_campaign(store, args.campaign))
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service.worker import run_worker

    return run_worker(
        args.url,
        worker_id=args.id,
        max_jobs=args.max_jobs,
        poll_interval=args.poll_interval,
        job_timeout_s=args.job_timeout,
        max_idle_polls=args.max_idle_polls,
        fault_plan_path=args.fault_plan,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.api import make_server

    with Service(
        store_path=args.store, max_workers=args.workers,
        resume=not args.no_resume,
        local_compute=not args.remote_only,
        lease_ttl_s=args.lease_ttl,
    ) as service:
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"repro service on http://{host}:{port} "
              f"(store: {service.store.path})", file=sys.stderr)

        def _drain_and_stop() -> None:
            # Flag first: lease grants stop the instant the signal lands,
            # then in-flight work gets the deadline to settle before the
            # WAL checkpoint and server shutdown.
            service.scheduler.draining = True
            report = service.drain(deadline_s=args.drain_deadline)
            print(f"drained: {json.dumps(report)}", file=sys.stderr)
            server.shutdown()

        def _on_sigterm(signum, frame) -> None:
            # serve_forever blocks the main thread; drain on a helper so
            # the signal handler returns immediately.
            threading.Thread(target=_drain_and_stop, daemon=True).start()

        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    store = _open_store_readonly(args.store)
    if store is None:
        return 1
    report = store.fsck(repair=args.repair)
    print(json.dumps(report, indent=2))
    if args.repair:
        # After a repair the remaining state is clean unless sqlite itself
        # is damaged beyond row deletion.
        return 0 if report["integrity_check"] == "ok" else 1
    return 0 if report["ok"] else 1


def _cmd_backup(args: argparse.Namespace) -> int:
    store = _open_store_readonly(args.store)
    if store is None:
        return 1
    print(json.dumps(store.backup(args.dest), indent=2))
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from repro.service.store import StoreIntegrityError, StoreSchemaError

    target = args.store if args.store is not None else default_store_path()
    try:
        store = ResultStore.restore(args.backup, target)
    except (FileNotFoundError, StoreIntegrityError, StoreSchemaError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(store.stats(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        print("\n".join(presets.preset_names()))
        return 0
    handler = {
        "submit": _cmd_submit,
        "status": _cmd_status,
        "results": _cmd_results,
        "serve": _cmd_serve,
        "work": _cmd_work,
        "fsck": _cmd_fsck,
        "backup": _cmd_backup,
        "restore": _cmd_restore,
    }[args.command]
    return handler(args)
