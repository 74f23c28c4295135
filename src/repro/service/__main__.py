"""Command-line interface for the campaign service.

Serving a campaign takes three terminals (or one daemon with
``--workers``)::

    # 1. seed the queue and monitor until complete
    python -m repro.service daemon fig05.json \\
        --queue fig05.queue.db --store sqlite:///fig05.db

    # 2..n: workers — start as many as you like, anywhere that sees
    # the queue file; kill -9 any of them and the campaign still
    # completes with bit-identical results
    python -m repro.service worker --queue fig05.queue.db \\
        --store sqlite:///fig05.db

    # watch the lease picture
    python -m repro.service status --queue fig05.queue.db

    # serve the warm store over HTTP
    python -m repro.service serve --store sqlite:///fig05.db --port 8023
    curl -s localhost:8023/artifacts
    curl -s -XPOST localhost:8023/artifacts/fig05/run -d '{}'

Exit codes: 0 success, 1 failure/timeout, 2 queue has failed cells
(``status``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import open_store
from repro.service.daemon import run_daemon
from repro.service.http import make_server
from repro.service.queue import DEFAULT_TTL, WorkQueue
from repro.service.worker import worker_main

__all__ = ["main"]


def _default_queue(spec_path: Path) -> Path:
    return spec_path.with_suffix(".queue.db")


def _default_store(spec_path: Path) -> Path:
    return spec_path.with_suffix(".results.jsonl")


def _cmd_daemon(args) -> int:
    spec_path = Path(args.spec)
    spec = CampaignSpec.load(spec_path)
    queue_path = Path(args.queue) if args.queue else _default_queue(spec_path)
    store_target = args.store if args.store else str(_default_store(spec_path))
    queue = WorkQueue(queue_path, ttl=args.ttl)
    store = open_store(store_target)

    def progress(status) -> None:
        leased = status["leased"]
        print(
            f"{status['spec']}: {status['done']}/{status['total']} done | "
            f"{status['pending']} pending, {leased} leased | "
            f"{status['requeues']} requeue(s)",
            flush=True,
        )

    summary = run_daemon(
        spec,
        queue,
        store,
        workers=args.workers,
        store_target=store_target,
        trace=args.trace,
        poll=args.poll,
        timeout=args.timeout,
        progress=progress if not args.quiet else None,
    )
    seeded = summary["seeded"]
    print(
        f"seeded {seeded['enqueued']} cell(s) "
        f"({seeded['cached']} already stored, "
        f"{seeded['queued']} already queued)"
    )
    counts = summary["counts"]
    print(
        f"campaign {summary['spec']}: {counts['done']} done, "
        f"{counts['failed']} failed, {summary['requeues']} requeue(s) "
        f"in {summary['elapsed']}s"
    )
    print(f"store: {store.uri()} ({len(store)} records)")
    if summary["timeout"]:
        print("error: daemon timed out before the campaign completed",
              file=sys.stderr)
    elif counts["pending"]:
        print(
            f"error: every local worker exited (exit codes "
            f"{summary['worker_exits']}) with {counts['pending']} cell(s) "
            f"still pending",
            file=sys.stderr,
        )
    for key, error in summary["failures"]:
        print(f"--- failed cell {key[:12]} ---", file=sys.stderr)
        print(error, file=sys.stderr)
    return 0 if summary["ok"] else 1


def _cmd_worker(args) -> int:
    return worker_main(
        args.queue,
        args.store,
        worker_id=args.id if args.id else None,
        trace=args.trace,
        poll=args.poll,
        max_cells=1 if args.once else args.max_cells,
        quiet=args.quiet,
    )


def _cmd_status(args) -> int:
    if not Path(args.queue).exists():
        raise FileNotFoundError(args.queue)
    status = WorkQueue(args.queue).status()
    if args.json:
        print(json.dumps(status, indent=2))
        return 0 if status["failed"] == 0 else 2
    print(f"queue:      {status['queue']}")
    print(f"campaign:   {status['spec'] or '?'}")
    print(f"store:      {status['store'] or '?'}")
    print(
        f"cells:      {status['done']}/{status['total']} done | "
        f"{status['pending']} pending, {status['leased']} leased, "
        f"{status['failed']} failed"
    )
    print(
        f"liveness:   ttl {status['ttl']}s | {status['attempts']} attempt(s), "
        f"{status['heartbeats']} heartbeat(s), {status['requeues']} requeue(s)"
    )
    for lease in status["leases"]:
        print(
            f"lease:      {lease['key'][:12]} held by {lease['owner']} "
            f"(expires in {lease['expires_in']}s, "
            f"{lease['heartbeats']} heartbeat(s))"
        )
    return 0 if status["failed"] == 0 else 2


def _cmd_serve(args) -> int:
    server = make_server(
        args.host, args.port, args.store, root=args.root, workers=args.workers
    )
    host, port = server.server_address[:2]
    store_uri = server.service.store.uri() or "(in-memory)"
    print(f"serving {store_uri} on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="work-queue campaign daemon, workers and HTTP facade",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_daemon = sub.add_parser(
        "daemon", help="seed the work queue and monitor until complete"
    )
    p_daemon.add_argument("spec", help="CampaignSpec JSON file")
    p_daemon.add_argument(
        "--queue", default=None, help="queue database (default: <spec>.queue.db)"
    )
    p_daemon.add_argument(
        "--store",
        default=None,
        help=(
            "shared result store: a JSONL path or sqlite:///path.db "
            "(default: <spec>.results.jsonl)"
        ),
    )
    p_daemon.add_argument(
        "--ttl",
        type=float,
        default=DEFAULT_TTL,
        help=f"lease TTL seconds (default {DEFAULT_TTL})",
    )
    p_daemon.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "local workers to start from the daemon process "
            "(default 0: monitor only)"
        ),
    )
    p_daemon.add_argument(
        "--poll",
        type=float,
        default=1.0,
        help="seconds between monitor ticks (default 1)",
    )
    p_daemon.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up after this many seconds",
    )
    p_daemon.add_argument(
        "--trace", default=None, metavar="PATH",
        help="per-cell telemetry trace file handed to spawned workers",
    )
    p_daemon.add_argument(
        "--quiet", action="store_true", help="suppress per-tick progress"
    )

    p_worker = sub.add_parser(
        "worker", help="lease and execute cells until the queue drains"
    )
    p_worker.add_argument("--queue", required=True, help="queue database")
    p_worker.add_argument(
        "--store", required=True,
        help="shared result store (JSONL path or sqlite:///path.db)",
    )
    p_worker.add_argument(
        "--id", default=None, help="worker id (default: host:pid)"
    )
    p_worker.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after this many cells (default: drain the queue)",
    )
    p_worker.add_argument(
        "--once", action="store_true", help="shorthand for --max-cells 1"
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between lease retries while peers hold cells",
    )
    p_worker.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append per-cell telemetry records to PATH",
    )
    p_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )

    p_status = sub.add_parser(
        "status", help="show queue states, leases, heartbeats and requeues"
    )
    p_status.add_argument("--queue", required=True, help="queue database")
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_serve = sub.add_parser(
        "serve", help="HTTP facade over the artifact registry and a store"
    )
    p_serve.add_argument(
        "--store", default=None,
        help="result store to serve (JSONL path or sqlite:///path.db)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8023)
    p_serve.add_argument(
        "--root", default=None,
        help="directory /campaigns/<name>/status may read (default: cwd)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for POST .../run campaigns",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "daemon":
            return _cmd_daemon(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_serve(args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in spec file: {exc}", file=sys.stderr)
    except (KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
