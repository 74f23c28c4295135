"""One service worker with the ledger's wrappers installed.

Started by the traced ``queue_drain`` iteration in place of
``python -m repro.service worker``: it installs the same timing wrappers
the parent uses, calls :func:`repro.service.worker.run_worker` and, on
the way out (also when the daemon terminates it), writes its spans,
counters and a few clock marks next to the queue file for the parent to
merge.  ``time.perf_counter`` reads the system-wide monotonic clock, so
the marks of parent and workers are comparable.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--queue", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--poll", type=float, default=0.5)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    tracer = Tracer()
    marks = {
        "spawned_at": args.spawned_at,
        "started_at": 0.0,  # run_worker entered (imports done)
        "first_lease_at": 0.0,
        "last_commit_at": 0.0,
        "executed": 0,
        "lost_leases": 0,
    }
    # The daemon terminates workers that are still starting or polling
    # when the queue drains: leave through `finally`, so that every
    # worker reports, if only that it did nothing.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        import repro.campaign.runner as campaign_runner
        from repro.campaign.store import open_store
        from repro.service.queue import WorkQueue
        from repro.service.worker import run_worker

        tracer.install()

        def progress(event: str, stats) -> None:
            marks["last_commit_at"] = perf_counter()
            marks["executed"] = stats.executed
            marks["lost_leases"] = stats.lost_leases

        queue = WorkQueue(args.queue)
        lease = queue.lease  # the wrapped method, bound

        def first_lease(owner: str):
            got = lease(owner)
            if got is not None and not marks["first_lease_at"]:
                marks["first_lease_at"] = perf_counter()
            return got

        queue.lease = first_lease  # type: ignore[method-assign]
        marks["started_at"] = perf_counter()
        tracer.wrap(run_worker, "service.worker", "run")(
            queue,
            open_store(args.store),
            worker_id=args.id,
            poll=args.poll,
            # run_worker binds execute_cell as a default argument, so
            # the wrapped module attribute has to be passed explicitly
            execute=campaign_runner.execute_cell,
            progress=progress,
        )
    finally:
        marks["ended_at"] = perf_counter()
        marks["started_at"] = marks["started_at"] or marks["ended_at"]
        tracer.uninstall()
        index = int(args.id.rsplit(":", 1)[-1]) + 1
        out = Path(args.queue.replace(".queue.db", f".worker{index}.trace.json"))
        out.write_text(
            json.dumps({"marks": marks, "trace": tracer.export(span_prefix=index)})
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
