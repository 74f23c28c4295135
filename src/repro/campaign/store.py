"""Result-store backends, keyed by cell content hash.

Every backend maps ``key → {"key", "cell", "metrics", "meta"}`` records
behind one interface (:class:`CellStore`).  Two implementations:

* :class:`ResultStore` — append-only JSONL, one line per finished cell::

      {"key": "<sha256>", "cell": {...}, "metrics": {...}, "meta": {...}}

  The portable default: stores can be concatenated, grepped, or shipped
  between machines, and a process killed mid-write leaves at most one
  truncated trailing line, which :meth:`ResultStore.load` skips (and
  counts) instead of failing.  ``path=None`` gives an in-memory store
  with the same interface.

* :class:`SqliteStore` — a WAL-mode sqlite database upserting by key,
  safe for *many concurrent writer processes* (the ``repro.service``
  work-queue workers).  Reads always see the live table, so a second
  process observes finished cells without re-loading anything.

Properties the campaign engine relies on, for every backend:

* **Crash safety** — a record is durable before ``append`` returns
  (JSONL: flush+fsync per line; sqlite: synchronous-FULL commits under
  the default ``durability="fsync"``).
* **Cache hits** — records are keyed by the cell's stable content hash,
  so re-running a spec against an existing store only executes cells it
  does not yet hold; duplicate keys are harmless (last write wins).

:func:`open_store` selects the backend by URI: ``sqlite:///path.db``
(or a bare ``*.db``/``*.sqlite`` path) opens a :class:`SqliteStore`,
any other path the JSONL :class:`ResultStore`, ``None`` the in-memory
store.  :func:`merge_stores` folds any mix of backends into one
(last-write-wins by key) — the shard/worker merge step.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "CellStore",
    "ResultStore",
    "SqliteStore",
    "open_store",
    "merge_stores",
    "MergeReport",
    "StoreLike",
]


class CellStore:
    """The interface every result-store backend implements.

    Concrete backends provide :meth:`load`, :meth:`append`, :meth:`get`
    and :meth:`keys`; the conveniences below are derived (and overridden
    where a backend has a faster path).  ``path`` is the backing file
    (``None`` = memory only), ``corrupt_lines`` counts records the last
    :meth:`load` had to skip.
    """

    path: Optional[Path] = None
    corrupt_lines: int = 0
    durability: str = "fsync"

    # -- backend primitives --------------------------------------------
    def load(self) -> int:
        raise NotImplementedError

    def append(
        self,
        key: str,
        cell: Mapping[str, object],
        metrics: Mapping[str, object],
        meta: Optional[Mapping[str, object]] = None,
        *,
        obs: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        raise NotImplementedError

    def get(self, key: str) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError

    # -- derived conveniences ------------------------------------------
    def metrics(self, key: str) -> Optional[Dict[str, object]]:
        """The metrics dict of a stored cell (a copy), or None.

        The copy keeps callers that post-process results in place from
        corrupting any backend-side cache (nested containers are not
        deep-copied).
        """
        record = self.get(key)
        return None if record is None else dict(record["metrics"])  # type: ignore[arg-type]

    def items(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield key, record

    def size_bytes(self) -> int:
        """Bytes currently in the backing file (0 for in-memory stores)."""
        if self.path is None or not self.path.exists():
            return 0
        return int(self.path.stat().st_size)

    def uri(self) -> Optional[str]:
        """The string that :func:`open_store` would resolve back to this
        backend (``None`` for in-memory stores) — how the service CLI
        hands a store to worker processes."""
        return None if self.path is None else str(self.path)

    def close(self) -> None:
        """Release backend resources (no-op for file/memory backends)."""

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())


class ResultStore(CellStore):
    """Persistent (or in-memory) map of cell key → result record.

    Parameters
    ----------
    path:
        Backing JSONL file; ``None`` keeps records in memory only.
    durability:
        ``"fsync"`` (default) forces every append to disk before
        returning — the crash-safety contract resume relies on.
        ``"flush"`` stops at the OS page cache: an order of magnitude
        faster for many-small-cell campaigns, still safe against the
        *process* dying (only a machine crash can lose the tail).
    """

    _DURABILITY = ("fsync", "flush")

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        durability: str = "fsync",
    ) -> None:
        if durability not in self._DURABILITY:
            raise ValueError(
                f"durability must be one of {self._DURABILITY}, got {durability!r}"
            )
        self.path = Path(path) if path is not None else None
        self.durability = durability
        self._records: Dict[str, Dict[str, object]] = {}
        #: malformed lines skipped by the last :meth:`load` (0 = clean)
        self.corrupt_lines = 0
        #: the file ends mid-line (crash mid-append): the next append
        #: must start on a fresh line or it would merge into the stub
        self._needs_newline = False
        if self.path is not None:
            self.load()

    # ------------------------------------------------------------------
    def load(self) -> int:
        """(Re)read the backing file; returns the number of records.

        Tolerant of a truncated final line (crash mid-append) and of
        foreign/garbage lines: anything that does not parse as a record
        is skipped and counted in :attr:`corrupt_lines`.
        """
        self._records.clear()
        self.corrupt_lines = 0
        self._needs_newline = False
        if self.path is None or not self.path.exists():
            return 0
        with self.path.open("rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if size:
                fh.seek(size - 1)
                self._needs_newline = fh.read(1) != b"\n"
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.corrupt_lines += 1
                    continue
                if (
                    not isinstance(record, dict)
                    or "key" not in record
                    or "metrics" not in record
                ):
                    self.corrupt_lines += 1
                    continue
                self._records[str(record["key"])] = record
        return len(self._records)

    # ------------------------------------------------------------------
    def append(
        self,
        key: str,
        cell: Mapping[str, object],
        metrics: Mapping[str, object],
        meta: Optional[Mapping[str, object]] = None,
        *,
        obs: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Record one finished cell (durable before returning).

        ``obs`` — an optional telemetry block stored as a top-level
        ``_obs`` key, *next to* (never inside) ``metrics``: content
        hashes cover only the cell spec and readers consume ``metrics``,
        so the block is invisible to both unless explicitly asked for.
        """
        record: Dict[str, object] = {
            "key": key,
            "cell": dict(cell),
            "metrics": dict(metrics),
            "meta": dict(meta) if meta else {},
        }
        if obs:
            record["_obs"] = dict(obs)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                # one write() per record: concurrent readers (status
                # --follow) never see a half line except the very tail
                prefix = "\n" if self._needs_newline else ""
                self._needs_newline = False
                fh.write(prefix + json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                if self.durability == "fsync":
                    os.fsync(fh.fileno())
        self._records[key] = record
        return record

    def size_bytes(self) -> int:
        """Bytes currently in the backing file (0 for in-memory stores)."""
        if self.path is None or not self.path.exists():
            return 0
        return int(self.path.stat().st_size)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def metrics(self, key: str) -> Optional[Dict[str, object]]:
        """The metrics dict of a stored cell (a copy), or None.

        The copy keeps callers that post-process results in place from
        corrupting the in-memory cache behind the JSONL file's back
        (nested containers are not deep-copied).
        """
        record = self._records.get(key)
        return None if record is None else dict(record["metrics"])  # type: ignore[arg-type]

    def keys(self) -> List[str]:
        return list(self._records)

    def items(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        return iter(self._records.items())

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "<memory>"
        return f"ResultStore({where!r}, records={len(self)})"


# ----------------------------------------------------------------------
class SqliteStore(CellStore):
    """Sqlite result store, safe for many concurrent writer processes.

    One table, upsert-by-key — the write pattern of a fleet of
    ``repro.service`` workers finishing content-hashed cells in
    arbitrary order, possibly redundantly (a requeued cell may land
    twice; last write wins, and both writes carry identical metrics
    because cells are pure functions of their spec).

    * **WAL journal** — readers never block writers: ``status``/serve
      traffic reads the live table while workers commit.
    * **Per-thread, per-process connections** — connections are opened
      lazily and keyed by (pid, thread), so instances survive ``fork``
      into worker processes and sharing across server threads.
    * **Durability** — ``"fsync"`` (default) commits with
      ``synchronous=FULL``; ``"flush"`` drops to ``NORMAL`` (an order of
      magnitude faster for bulk merges, still safe against the process
      dying — only a machine crash can lose the most recent commits).

    Reads (:meth:`get`, :meth:`keys`, ``in``, ``len``) always query the
    database, so one process observes another's finished cells without
    any reload step — the property the work-queue daemon relies on.
    """

    _BUSY_TIMEOUT_MS = 30_000

    def __init__(
        self,
        path: Union[str, Path],
        *,
        durability: str = "fsync",
    ) -> None:
        if durability not in ResultStore._DURABILITY:
            raise ValueError(
                f"durability must be one of {ResultStore._DURABILITY}, "
                f"got {durability!r}"
            )
        self.path = Path(path)
        self.durability = durability
        self.corrupt_lines = 0
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn()  # create the schema eagerly: fail fast on bad paths
        except sqlite3.DatabaseError as exc:
            raise ValueError(
                f"{self.path} is not a sqlite result store: {exc}"
            ) from None

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
                isolation_level=None,  # autocommit; upserts are atomic
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={self._BUSY_TIMEOUT_MS}")
            conn.execute(
                "PRAGMA synchronous="
                + ("FULL" if self.durability == "fsync" else "NORMAL")
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  key TEXT PRIMARY KEY,"
                "  record TEXT NOT NULL"
                ")"
            )
            local.conn = conn
        return local.conn

    # ------------------------------------------------------------------
    def load(self) -> int:
        """Record count (reads are always live; nothing to re-read)."""
        row = self._conn().execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def append(
        self,
        key: str,
        cell: Mapping[str, object],
        metrics: Mapping[str, object],
        meta: Optional[Mapping[str, object]] = None,
        *,
        obs: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Upsert one finished cell (durable before returning)."""
        record: Dict[str, object] = {
            "key": key,
            "cell": dict(cell),
            "metrics": dict(metrics),
            "meta": dict(meta) if meta else {},
        }
        if obs:
            record["_obs"] = dict(obs)
        self._conn().execute(
            "INSERT OR REPLACE INTO results (key, record) VALUES (?, ?)",
            (str(key), json.dumps(record, sort_keys=True)),
        )
        return record

    def get(self, key: str) -> Optional[Dict[str, object]]:
        row = self._conn().execute(
            "SELECT record FROM results WHERE key = ?", (str(key),)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def keys(self) -> List[str]:
        rows = self._conn().execute(
            "SELECT key FROM results ORDER BY rowid"
        ).fetchall()
        return [str(r[0]) for r in rows]

    def items(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        for key, payload in self._conn().execute(
            "SELECT key, record FROM results ORDER BY rowid"
        ):
            yield str(key), json.loads(payload)

    def __contains__(self, key: str) -> bool:
        row = self._conn().execute(
            "SELECT 1 FROM results WHERE key = ?", (str(key),)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self.load()

    def size_bytes(self) -> int:
        """Database + WAL bytes on disk (the WAL holds recent commits)."""
        total = 0
        for p in (self.path, Path(str(self.path) + "-wal")):
            if p.exists():
                total += int(p.stat().st_size)
        return total

    def uri(self) -> str:
        return f"sqlite:///{self.path}"

    def close(self) -> None:
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and getattr(local, "pid", None) == os.getpid():
            conn.close()
            local.conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteStore({str(self.path)!r}, records={len(self)})"


# ----------------------------------------------------------------------
StoreLike = Union[None, str, Path, CellStore]

_SQLITE_SCHEME = "sqlite:///"
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def open_store(target: StoreLike, *, durability: str = "fsync") -> CellStore:
    """Resolve a store argument to a backend instance.

    * ``None`` — ephemeral in-memory :class:`ResultStore`;
    * an existing :class:`CellStore` — returned as-is (``durability``
      is ignored; the instance keeps its own);
    * ``"sqlite:///path.db"`` or a bare path ending in ``.db`` /
      ``.sqlite`` / ``.sqlite3`` — :class:`SqliteStore`;
    * any other string/path — JSONL :class:`ResultStore`.

    This is the single dispatch point behind ``repro.api.run(store=…)``,
    ``CampaignRunner(store=…)``, every ``--store`` CLI flag and the
    service daemon/worker/facade, so one URI names the same store
    everywhere.
    """
    if target is None:
        return ResultStore(None)
    if isinstance(target, CellStore):
        return target
    text = str(target)
    if text.startswith("sqlite:"):
        if not text.startswith(_SQLITE_SCHEME) or text == _SQLITE_SCHEME:
            raise ValueError(
                f"invalid sqlite store URI {text!r}: expected "
                f"sqlite:///relative/path.db or sqlite:////absolute/path.db"
            )
        return SqliteStore(text[len(_SQLITE_SCHEME):], durability=durability)
    path = Path(text)
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return SqliteStore(path, durability=durability)
    return ResultStore(path, durability=durability)


@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_stores` did."""

    #: records read from the inputs (including overwrites)
    merged: int
    #: appends that replaced a key already in the output (last write won)
    duplicates: int
    #: unreadable input lines skipped (truncated tails, foreign garbage)
    skipped: int
    #: distinct records the output holds afterwards
    records: int

    def summary(self) -> str:
        return (
            f"merged {self.merged} records "
            f"({self.duplicates} duplicate keys overwritten, "
            f"{self.skipped} unreadable lines skipped); "
            f"output holds {self.records} records"
        )


def merge_stores(
    out: StoreLike,
    inputs: Sequence[StoreLike],
    *,
    durability: str = "flush",
) -> MergeReport:
    """Fold shard/worker stores into one, last-write-wins by key.

    Inputs are consumed in argument order, so a key present in several
    stores ends with the *last* input's record — matching what loading a
    concatenated JSONL file would produce.  Backends mix freely: JSONL
    shards can merge into sqlite (the import path) and vice versa.
    ``durability`` applies to the output store when it is opened here
    (default ``"flush"``: bulk merges need not fsync per record).
    """
    out_store = open_store(out, durability=durability)
    merged = duplicates = skipped = 0
    for target in inputs:
        src = open_store(target)
        skipped += src.corrupt_lines
        for key, record in src.items():
            if key in out_store:
                duplicates += 1
            out_store.append(
                key,
                record.get("cell", {}),  # type: ignore[arg-type]
                record["metrics"],  # type: ignore[arg-type]
                record.get("meta"),  # type: ignore[arg-type]
                obs=record.get("_obs"),  # type: ignore[arg-type]
            )
            merged += 1
        if src is not out_store:
            src.close()
    return MergeReport(
        merged=merged,
        duplicates=duplicates,
        skipped=skipped,
        records=len(out_store),
    )
