"""The campaign daemon: seed the queue, watch the fleet, declare done.

The daemon is deliberately dumb — all correctness lives in the queue's
lease protocol and the store's content-hash upserts.  Its job:

1. :func:`seed_queue` — expand a :class:`CampaignSpec` into cells and
   enqueue every one the shared store doesn't already hold (warm stores
   seed an empty queue: the campaign is already done).
2. Optionally start local workers as ``multiprocessing`` children of
   the daemon itself (:func:`spawn_workers` — a fork of the
   already-imported process on Linux, the same start policy as
   ``CampaignRunner``); production fleets start the ``worker`` CLI
   independently against the same queue file.
3. :func:`run_daemon` — poll the queue, requeue expired leases (so
   progress survives even with zero live workers calling ``lease()``),
   emit progress lines, and exit 0 when every cell is done (1 if any
   failed, the timeout lapsed or every local worker died first).  On a
   done queue it wakes its idle local workers and waits for all of them
   to exit by themselves; only a timeout or an error terminates them.

Killing the daemon never loses work: the queue file is the source of
truth and a restarted daemon re-seeding the same spec finds every key
already queued or stored.
"""

from __future__ import annotations

# card-lint: disable-file=CARD-D01 -- the monitor loop is operational
# wall-clock (poll cadence, timeouts); it never touches cell metrics
import multiprocessing as mp
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro import obs
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CellStore
from repro.service.queue import WorkQueue
from repro.service.worker import worker_main

__all__ = ["seed_queue", "run_daemon", "spawn_workers"]


def seed_queue(
    spec: CampaignSpec, queue: WorkQueue, store: CellStore
) -> Dict[str, int]:
    """Enqueue ``spec``'s cells that ``store`` doesn't already hold.

    Idempotent: keys already queued (any state) are counted but left
    untouched, so re-seeding after a daemon restart is safe.  Records
    the spec name, store URI and TTL in queue meta so ``status`` and
    late-joining workers can find the campaign's parameters.
    """
    queue.set_meta("spec", spec.name)
    queue.set_meta("store", store.uri())
    queue.set_meta("ttl", queue.ttl)
    pairs = [(key, cell.to_dict()) for key, cell in spec.unique_cells().items()]
    counts = queue.enqueue(pairs, skip=store.keys())
    counts["total"] = len(pairs)
    return counts


def _local_worker(
    queue_path: str, store_target: str, worker_id: str,
    trace: Optional[str], poll: float, wake,
) -> None:
    """Body of one local worker process.  Everything but the ``wake``
    event is opened by path in here: the child uses no other object it
    inherited."""
    obs.deactivate()  # a trace active in the daemon is not this worker's
    sys.exit(
        worker_main(
            queue_path, store_target, worker_id=worker_id, trace=trace,
            poll=poll, idle=wake.wait,
        )
    )


class _LocalWorker:
    """``subprocess.Popen``'s ``poll/terminate/wait/kill`` over an
    ``mp.Process``, so one reaping loop serves both kinds of handle;
    setting ``wake`` ends the worker's idle wait."""

    def __init__(self, process, wake) -> None:
        self._process = process
        self.wake = wake
        self.terminate = process.terminate
        self.kill = process.kill

    def poll(self) -> Optional[int]:
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(self._process.name, timeout)
        return self._process.exitcode


def spawn_workers(
    n: int,
    queue_path: Union[str, Path],
    store_target: str,
    *,
    trace: Optional[str] = None,
    poll: float = 0.5,
) -> List[_LocalWorker]:
    """Start ``n`` local workers against the shared queue.

    Children of the calling process under the platform-default
    ``multiprocessing`` start method.  Under ``fork`` the caller must
    hold no open sqlite connection (SQLite's per-process lock
    bookkeeping does not survive a fork) and run no other thread;
    :func:`run_daemon` sees to the first.
    """
    ctx = mp.get_context()
    wake = ctx.Event()
    procs: List[_LocalWorker] = []
    for i in range(n):
        process = ctx.Process(
            target=_local_worker,
            args=(str(queue_path), str(store_target), f"local:{i}", trace,
                  poll, wake),
            name=f"local:{i}",
            daemon=True,  # never outlives, or blocks the exit of, its parent
        )
        process.start()
        procs.append(_LocalWorker(process, wake))
    return procs


def run_daemon(
    spec: CampaignSpec,
    queue: WorkQueue,
    store: CellStore,
    *,
    workers: int = 0,
    store_target: Optional[str] = None,
    trace: Optional[str] = None,
    poll: float = 1.0,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Seed the queue and monitor it until the campaign completes.

    Parameters
    ----------
    workers:
        Local workers to start (0 = monitor only; workers are expected
        to be started elsewhere against the same queue).  If every one
        of them has exited while cells are pending and none is leased,
        the daemon stops and reports ``ok: False`` rather than wait for
        a fleet that is gone.
    store_target:
        The store URI handed to spawned workers (defaults to
        ``store.uri()``); required when ``workers > 0`` and the store
        has no filesystem identity.
    timeout:
        Give up after this many seconds (workers are terminated, exit
        status reports ``timeout: True``).
    progress:
        Called with :meth:`WorkQueue.status` each poll tick.

    Returns a summary dict: seed counts, final state counts, requeues,
    failures, elapsed, ``worker_exits`` (the local workers' exit codes,
    a negative signal number for one that was killed) and ``ok`` (True
    iff everything is done).
    """
    seeded = seed_queue(spec, queue, store)
    procs: List[_LocalWorker] = []
    if workers > 0:
        target = store_target if store_target else store.uri()
        if target is None:
            raise ValueError(
                "cannot spawn workers against a store with no path; "
                "pass store_target="
            )
        # no sqlite connection crosses the fork; both reopen lazily
        queue.close()
        store.close()
        procs = spawn_workers(
            workers, queue.path, target, trace=trace, poll=min(poll, 0.5)
        )

    started = time.monotonic()
    timed_out = drained = False
    try:
        while not queue.is_done():
            queue.requeue_expired()
            if progress is not None:
                progress(queue.status())
            if timeout is not None and time.monotonic() - started > timeout:
                timed_out = True
                break
            live = next((proc for proc in procs if proc.poll() is None), None)
            if live is not None:
                # local workers leave only once nothing remains: the
                # exit of one is the done signal, so wait on that
                try:
                    live.wait(timeout=poll)
                except subprocess.TimeoutExpired:
                    pass
                continue
            if procs:
                counts = queue.counts()
                if counts["pending"] and not counts["leased"]:
                    break  # the local fleet is dead; nobody will finish
            time.sleep(poll)
        else:
            drained = True
    finally:
        # on a done queue a live worker leaves by itself once woken: a
        # signal could land between its last commit and its bookkeeping
        for proc in procs:
            if proc.poll() is None:
                if not drained:
                    proc.terminate()
                elif hasattr(proc, "wake"):
                    proc.wake.set()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()

    counts = queue.counts()
    failures = queue.failures()
    status = queue.status()
    return {
        "spec": spec.name,
        "store": store.uri(),
        "seeded": seeded,
        "counts": counts,
        "requeues": status["requeues"],
        "heartbeats": status["heartbeats"],
        "failures": failures,
        "elapsed": round(time.monotonic() - started, 3),
        "timeout": timed_out,
        "worker_exits": [proc.poll() for proc in procs],
        "ok": not timed_out and not failures and queue.is_done(),
    }
