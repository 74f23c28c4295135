"""The service worker: lease → execute → append → commit, forever.

A worker is one process in the campaign fleet.  It owns nothing: the
queue decides what it runs, the shared store receives what it produces,
and a background heartbeat pump keeps its lease alive while a cell
executes.  If the worker dies — including ``kill -9`` — the pump dies
with it, the lease expires and the cell requeues for a peer.

Correctness leans on three properties rather than coordination:

* cells are pure functions of their spec, so re-execution after a crash
  produces identical metrics;
* the store upserts by content hash, so duplicate appends from a lease
  that was presumed lost (but whose worker was merely slow) are
  harmless;
* :meth:`~repro.service.queue.WorkQueue.commit` is owner-checked, so a
  worker that lost its lease finds out and counts the cell as lost, not
  done.

With telemetry enabled each cell runs inside a
:class:`~repro.obs.TracedCell` — the helper the campaign pool worker
uses too — carrying ``lease`` / ``execute`` / ``commit`` spans plus the
worker id in its meta, appended crash-safely to the campaign trace
file: the same record shape :mod:`repro.obs.report` already aggregates.
"""

from __future__ import annotations

# card-lint: disable-file=CARD-D01 -- the lease loop is operational
# wall-clock (heartbeats, lease budgets, throughput); cell metrics come
# from execute_cell, which stays clock-free
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro import obs
from repro.campaign.runner import execute_cell
from repro.campaign.spec import CellSpec
from repro.campaign.store import CellStore, open_store
from repro.service.queue import Lease, WorkQueue

__all__ = ["WorkerStats", "run_worker", "worker_main", "default_worker_id"]


def default_worker_id() -> str:
    """``host:pid`` — unique across a shared-filesystem fleet."""
    return f"{os.uname().nodename}:{os.getpid()}"


@dataclass
class WorkerStats:
    """What one :func:`run_worker` call accomplished."""

    worker_id: str
    executed: int = 0
    failed: int = 0
    #: cells whose lease expired under us (a peer re-ran them); their
    #: results were discarded, not stored.
    lost_leases: int = 0
    elapsed: float = 0.0
    keys: list = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"worker {self.worker_id}:",
            f"{self.executed} executed",
            f"{self.failed} failed",
        ]
        if self.lost_leases:
            parts.append(f"{self.lost_leases} lost lease(s)")
        parts.append(f"in {self.elapsed:.1f}s")
        return " ".join(parts)


class _HeartbeatPump:
    """Background thread extending one lease until stopped.

    Beats every ``ttl / 3`` so two consecutive beats can be lost to
    scheduling jitter before the lease lapses.  If a beat is rejected
    (the lease was requeued — we were presumed dead), ``alive`` flips to
    False and the worker discards the cell's result.
    """

    def __init__(self, queue: WorkQueue, key: str, owner: str) -> None:
        self._queue = queue
        self._key = key
        self._owner = owner
        self._stop = threading.Event()
        self.alive = True
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat:{key[:12]}", daemon=True
        )

    def start(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = max(self._queue.ttl / 3.0, 0.05)
        while not self._stop.wait(interval):
            if not self._queue.heartbeat(self._key, self._owner):
                self.alive = False
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(
    queue: Union[str, Path, WorkQueue],
    store: CellStore,
    *,
    worker_id: Optional[str] = None,
    telemetry: Union[None, bool, str, Path] = None,
    poll: float = 0.5,
    max_cells: Optional[int] = None,
    execute: Callable[[CellSpec], Dict[str, object]] = execute_cell,
    progress: Optional[Callable[[str, WorkerStats], None]] = None,
    idle: Callable[[float], object] = time.sleep,
) -> WorkerStats:
    """Drain the queue: lease cells, execute them, append to ``store``.

    Runs until the queue has no unfinished cells (or ``max_cells`` is
    reached).  When ``lease()`` returns None but leased cells remain,
    the worker waits ``idle(poll)`` and retries — those leases may
    belong to a dead peer and expire into our hands.

    Parameters
    ----------
    queue:
        The shared :class:`WorkQueue` (or its database path).
    store:
        The shared result store; every committed cell is appended with
        ``meta={"worker", "elapsed", "finished_at"}``.
    telemetry:
        ``None``/``False``, ``True`` or a trace file path, resolved by
        :func:`repro.obs.resolve_telemetry`; per-cell traces carry
        ``lease``/``execute``/``commit`` spans.
    execute:
        The cell executor (injectable for tests; defaults to the real
        :func:`~repro.campaign.runner.execute_cell`).
    progress:
        Optional callback ``(event, stats)`` after each cell, where
        ``event`` is ``done``/``failed``/``lost``.
    idle:
        Waits up to ``poll`` seconds while nothing can be leased; a true
        return ends the drain (a local worker's daemon sets its event).
    """
    if not isinstance(queue, WorkQueue):
        queue = WorkQueue(queue)
    owner = worker_id if worker_id else default_worker_id()
    trace_on, trace_path = obs.resolve_telemetry(
        telemetry, store_path=store.path
    )
    stats = WorkerStats(worker_id=owner)
    started = time.perf_counter()

    while True:
        if max_cells is not None and stats.executed + stats.failed >= max_cells:
            break
        lease_t0 = time.perf_counter()
        lease: Optional[Lease] = queue.lease(owner)
        if lease is None:
            # Exit only once a seeded queue has fully drained.  An empty
            # queue means the daemon has not seeded yet (workers may
            # legitimately start first); leased-but-unfinished cells may
            # expire into our hands — poll in both cases.
            if len(queue) > 0 and queue.remaining() == 0:
                break
            if idle(poll):
                break  # woken: the daemon found the queue done
            continue
        lease_seconds = time.perf_counter() - lease_t0

        with obs.TracedCell(
            lease.key, on=trace_on, path=trace_path, meta={"worker": owner}
        ) as traced:
            if traced.trace is not None:
                traced.trace.record_phase("lease", lease_seconds)
            pump = _HeartbeatPump(queue, lease.key, owner).start()
            cell_t0 = time.perf_counter()
            metrics: Optional[Dict[str, object]] = None
            try:
                with obs.span("execute"):
                    metrics = execute(CellSpec.from_dict(lease.cell))
            except Exception:  # noqa: BLE001 - report via the queue, keep draining
                traced.error = traceback.format_exc()
            finally:
                pump.stop()
            elapsed = time.perf_counter() - cell_t0
            error = traced.error

            event = "done"
            if not pump.alive:
                # The lease expired under us; a peer owns (or re-ran) the
                # cell.  Drop the result — the peer's identical append wins.
                stats.lost_leases += 1
                event = "lost"
            else:
                with obs.span("commit"):
                    if error is None and metrics is not None:
                        store.append(
                            lease.key,
                            lease.cell,
                            metrics,
                            meta={
                                "worker": owner,
                                "elapsed": round(elapsed, 4),
                                "finished_at": time.time(),
                            },
                        )
                    committed = queue.commit(
                        lease.key, owner, elapsed=elapsed, error=error
                    )
                if not committed:
                    stats.lost_leases += 1
                    event = "lost"
                elif error is None:
                    stats.executed += 1
                    stats.keys.append(lease.key)
                else:
                    stats.failed += 1
                    event = "failed"

        if progress is not None:
            progress(event, stats)

    stats.elapsed = time.perf_counter() - started
    return stats


def worker_main(
    queue_path: Union[str, Path],
    store_target: str,
    *,
    worker_id: Optional[str] = None,
    trace: Optional[str] = None,
    poll: float = 0.5,
    max_cells: Optional[int] = None,
    quiet: bool = False,
    idle: Callable[[float], object] = time.sleep,
) -> int:
    """One fleet member from start to exit code.

    Opens its own queue and store by path, drains with
    :func:`run_worker`, prints per-cell progress (unless ``quiet``) and
    the closing summary, and returns the process exit code (1 if any
    cell failed).  ``python -m repro.service worker`` and the local
    workers the daemon starts (passing ``idle``) both end here, so they
    print and exit identically.
    """

    def progress(event: str, stats: WorkerStats) -> None:
        print(
            f"[{stats.worker_id}] {event}: "
            f"{stats.executed} executed, {stats.failed} failed, "
            f"{stats.lost_leases} lost",
            flush=True,
        )

    stats = run_worker(
        WorkQueue(queue_path),
        open_store(store_target),
        worker_id=worker_id,
        telemetry=trace,
        poll=poll,
        max_cells=max_cells,
        progress=None if quiet else progress,
        idle=idle,
    )
    print(stats.summary())
    return 0 if stats.failed == 0 else 1
