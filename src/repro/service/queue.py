"""Lease-based work queue over content-hashed campaign cells.

The queue is one sqlite file (WAL journal, busy-timeout retries) shared
by a daemon and any number of worker processes, possibly on different
machines over a shared filesystem.  Its contract:

* **At-least-once execution.**  :meth:`WorkQueue.lease` atomically
  claims the oldest pending cell for a worker and stamps a TTL; the
  worker heartbeats while executing and commits when done.  A worker
  killed ``-9`` stops heartbeating, so its lease expires and the next
  ``lease()``/:meth:`requeue_expired` call returns the cell to the
  pending set.  A cell can therefore run more than once — but cells are
  pure functions of their spec and the result store upserts by content
  hash, so redundant executions write identical metrics.
* **Exactly-once results.**  :meth:`commit` and :meth:`heartbeat` check
  lease ownership: a worker that lost its lease (it was presumed dead
  and its cell requeued) gets ``False`` back and must not count the
  cell as its own.
* **Crash-safe bookkeeping.**  Every transition is a single sqlite
  transaction; killing any process mid-transition leaves the queue in
  the previous consistent state.

The schema keeps per-cell counters (``attempts``, ``requeues``,
``heartbeats``) so ``status`` can show the full lease history of a
campaign — who holds what, how stale, and how often work bounced.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["WorkQueue", "Lease", "DEFAULT_TTL"]

#: Seconds a lease stays valid without a heartbeat.  Generous enough for
#: default-scale cells; campaigns with slow cells raise it at seed time
#: (the daemon records it in queue meta, so workers inherit it).
DEFAULT_TTL = 30.0

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS cells (
        key TEXT PRIMARY KEY,
        cell TEXT NOT NULL,
        state TEXT NOT NULL DEFAULT 'pending',
        owner TEXT,
        lease_expires REAL,
        attempts INTEGER NOT NULL DEFAULT 0,
        requeues INTEGER NOT NULL DEFAULT 0,
        heartbeats INTEGER NOT NULL DEFAULT 0,
        elapsed REAL,
        error TEXT,
        finished_at REAL
    )
    """,
    "CREATE INDEX IF NOT EXISTS cells_state ON cells(state)",
    "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT)",
)

#: States a queued cell moves through.
STATES = ("pending", "leased", "done", "failed")


@dataclass(frozen=True)
class Lease:
    """One successfully claimed cell: execute it, heartbeat, commit."""

    key: str
    #: the serialised :class:`~repro.campaign.spec.CellSpec` dict
    cell: Dict[str, object]
    owner: str
    #: absolute deadline; heartbeats push it forward
    expires: float


class WorkQueue:
    """The shared lease queue (one sqlite file, many processes).

    Parameters
    ----------
    path:
        The queue database file (created on first use).
    ttl:
        Lease TTL in seconds.  ``None`` (default) reads the TTL the
        daemon recorded at seed time — workers pick the campaign's
        setting up automatically — falling back to :data:`DEFAULT_TTL`.
    clock:
        Time source (``time.time``); injectable so tests can expire
        leases deterministically instead of sleeping.
    """

    _BUSY_TIMEOUT_MS = 30_000

    def __init__(
        self,
        path: Union[str, Path],
        *,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,  # card-lint: disable=CARD-D01 -- lease TTLs are wall-clock by design; injectable for tests
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn()  # create the schema eagerly
        if ttl is not None:
            ttl = float(ttl)
            if ttl <= 0:
                raise ValueError(f"ttl must be positive, got {ttl}")
            # persist so status/workers opening this queue inherit it
            self.set_meta("ttl", ttl)
        self._ttl = ttl

    @property
    def ttl(self) -> float:
        """The lease TTL.  Explicit at construction, else read from
        queue meta on every access — a worker that opened the queue
        before the daemon seeded it picks the campaign's TTL up on its
        next lease or heartbeat."""
        if self._ttl is not None:
            return self._ttl
        stored = self.get_meta("ttl")
        return float(stored) if stored is not None else DEFAULT_TTL

    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        """This (pid, thread)'s connection, (re)opened after fork."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.conn = None
            local.pid = os.getpid()
        if local.conn is None:
            conn = sqlite3.connect(
                str(self.path),
                timeout=self._BUSY_TIMEOUT_MS / 1000.0,
                isolation_level=None,  # explicit BEGIN/COMMIT below
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={self._BUSY_TIMEOUT_MS}")
            for statement in _SCHEMA:
                conn.execute(statement)
            local.conn = conn
        return local.conn

    def close(self) -> None:
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and getattr(local, "pid", None) == os.getpid():
            conn.close()
            local.conn = None

    # -- campaign metadata ---------------------------------------------
    def set_meta(self, key: str, value: object) -> None:
        self._conn().execute(
            "INSERT OR REPLACE INTO meta (k, v) VALUES (?, ?)",
            (str(key), json.dumps(value)),
        )

    def get_meta(self, key: str) -> Optional[object]:
        row = self._conn().execute(
            "SELECT v FROM meta WHERE k = ?", (str(key),)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    # -- seeding --------------------------------------------------------
    def enqueue(
        self,
        pairs: Iterable[Tuple[str, Dict[str, object]]],
        *,
        skip: Iterable[str] = (),
    ) -> Dict[str, int]:
        """Insert pending cells; keys in ``skip`` (already stored) and
        keys already queued are left untouched.

        Returns ``{"enqueued": …, "cached": …, "queued": …}`` — new
        rows, store cache hits, and keys the queue already knew.
        """
        skip_set = set(skip)
        conn = self._conn()
        enqueued = cached = queued = 0
        conn.execute("BEGIN IMMEDIATE")
        try:
            for key, cell in pairs:
                if key in skip_set:
                    cached += 1
                    continue
                inserted = conn.execute(
                    "INSERT OR IGNORE INTO cells (key, cell) VALUES (?, ?)",
                    (str(key), json.dumps(cell, sort_keys=True)),
                ).rowcount
                if inserted:
                    enqueued += 1
                else:
                    queued += 1
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return {"enqueued": enqueued, "cached": cached, "queued": queued}

    # -- the lease protocol --------------------------------------------
    def lease(self, owner: str) -> Optional[Lease]:
        """Atomically claim the oldest pending cell for ``owner``.

        Expired leases are requeued first, so a worker polling an
        apparently drained queue picks up a dead peer's cell as soon as
        its TTL lapses.  Returns ``None`` when nothing is pending.
        """
        now = self._clock()
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            self._requeue_expired_locked(conn, now)
            row = conn.execute(
                "SELECT key, cell FROM cells WHERE state = 'pending' "
                "ORDER BY rowid LIMIT 1"
            ).fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            key, cell_json = str(row[0]), str(row[1])
            expires = now + self.ttl
            conn.execute(
                "UPDATE cells SET state = 'leased', owner = ?, "
                "lease_expires = ?, attempts = attempts + 1 WHERE key = ?",
                (str(owner), expires, key),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return Lease(
            key=key, cell=json.loads(cell_json), owner=str(owner), expires=expires
        )

    def heartbeat(self, key: str, owner: str) -> bool:
        """Extend ``owner``'s lease on ``key``; False = the lease is
        gone (it expired and was requeued, or someone else holds it) and
        the worker must abandon the cell's result."""
        updated = self._conn().execute(
            "UPDATE cells SET lease_expires = ?, heartbeats = heartbeats + 1 "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (self._clock() + self.ttl, str(key), str(owner)),
        ).rowcount
        return updated == 1

    def commit(
        self,
        key: str,
        owner: str,
        *,
        elapsed: float = 0.0,
        error: Optional[str] = None,
    ) -> bool:
        """Finish ``owner``'s lease on ``key`` (``done``, or ``failed``
        with the error text).  False = the lease was lost meanwhile."""
        state = "done" if error is None else "failed"
        updated = self._conn().execute(
            "UPDATE cells SET state = ?, owner = NULL, lease_expires = NULL, "
            "elapsed = ?, error = ?, finished_at = ? "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (
                state,
                float(elapsed),
                error,
                self._clock(),
                str(key),
                str(owner),
            ),
        ).rowcount
        return updated == 1

    # -- recovery -------------------------------------------------------
    def _requeue_expired_locked(
        self, conn: sqlite3.Connection, now: float
    ) -> int:
        return conn.execute(
            "UPDATE cells SET state = 'pending', owner = NULL, "
            "lease_expires = NULL, requeues = requeues + 1 "
            "WHERE state = 'leased' AND lease_expires < ?",
            (now,),
        ).rowcount

    def requeue_expired(self) -> int:
        """Return expired leases to the pending set; count requeued."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            count = self._requeue_expired_locked(conn, self._clock())
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return count

    # -- introspection --------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Cells per state (every state present, zero-filled)."""
        out = {state: 0 for state in STATES}
        for state, n in self._conn().execute(
            "SELECT state, COUNT(*) FROM cells GROUP BY state"
        ):
            out[str(state)] = int(n)
        return out

    def remaining(self) -> int:
        """Cells not yet finished (pending + leased)."""
        row = self._conn().execute(
            "SELECT COUNT(*) FROM cells WHERE state IN ('pending', 'leased')"
        ).fetchone()
        return int(row[0])

    def is_done(self) -> bool:
        """True once every queued cell is done or failed."""
        return self.remaining() == 0

    def failures(self) -> List[Tuple[str, str]]:
        """(key, error) for every failed cell."""
        return [
            (str(k), str(e))
            for k, e in self._conn().execute(
                "SELECT key, error FROM cells WHERE state = 'failed' "
                "ORDER BY rowid"
            )
        ]

    def status(self) -> Dict[str, object]:
        """The queue's live picture: states, counters, current leases."""
        now = self._clock()
        counts = self.counts()
        totals = self._conn().execute(
            "SELECT COALESCE(SUM(requeues), 0), COALESCE(SUM(heartbeats), 0), "
            "COALESCE(SUM(attempts), 0) FROM cells"
        ).fetchone()
        leases = [
            {
                "key": str(key),
                "owner": str(owner),
                "expires_in": round(float(expires) - now, 3),
                "heartbeats": int(beats),
                "attempts": int(attempts),
            }
            for key, owner, expires, beats, attempts in self._conn().execute(
                "SELECT key, owner, lease_expires, heartbeats, attempts "
                "FROM cells WHERE state = 'leased' ORDER BY lease_expires"
            )
        ]
        return {
            "queue": str(self.path),
            "spec": self.get_meta("spec"),
            "store": self.get_meta("store"),
            "ttl": self.ttl,
            "total": sum(counts.values()),
            **counts,
            "requeues": int(totals[0]),
            "heartbeats": int(totals[1]),
            "attempts": int(totals[2]),
            "leases": leases,
        }

    def __len__(self) -> int:
        row = self._conn().execute("SELECT COUNT(*) FROM cells").fetchone()
        return int(row[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkQueue({str(self.path)!r}, ttl={self.ttl})"
