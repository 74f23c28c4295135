"""Span/counter tracing primitives for the campaign engine.

One :class:`CellTrace` covers one unit of work (a campaign cell).  The
worker that executes the cell *activates* the trace for its process,
instrumented code records phases through the module-level :func:`span`
and :func:`add` helpers, and on completion the trace *finishes* into a
single flat, JSON-safe record::

    {
      "key": "<cell sha256>",
      "pid": 12345,
      "t_wall": 1754650000.0,          # wall-clock start (epoch seconds)
      "elapsed": 1.23,                 # total cell wall time (seconds)
      "error": null,                   # or the worker's traceback string
      "phases": {"topology_build": 0.01, "metrics:reachability": 0.9},
      "spans": [{"name": ..., "t0": 0.0, "t1": 0.01, "depth": 0}, ...],
      "counters": {"substrate_full_rebuilds": 1, ...},
      "meta": {"worker": "host:pid"}   # only when the trace has meta
    }

Design constraints, in order:

* **Near-zero cost when disabled.**  With no active trace,
  :func:`span` is one module-global read plus an identity return of a
  shared no-op context manager — no allocation, no clock read.  The
  instrumented hot paths therefore cost nothing in the default
  (telemetry-off) configuration, which is what keeps pinned content
  hashes and golden fixtures byte-identical.
* **Process-safe by construction.**  The active trace is plain
  process-global state (campaign workers are processes, not threads)
  and every worker appends its *own* finished records to the trace
  file: one ``write()`` of one ``\\n``-terminated line per record on an
  append-mode handle, which the kernel does not interleave for regular
  files.  No locks, same recipe as the JSONL
  :class:`~repro.campaign.store.ResultStore`.
* **Crash-safe.**  A worker killed mid-write leaves at most one
  truncated trailing line; :func:`repro.obs.report.load_trace` skips
  (and counts) anything that does not parse, mirroring
  ``ResultStore.load``.

Timestamps inside a record are ``time.perf_counter`` offsets relative
to the cell start (monotonic, sub-microsecond); the record's ``t_wall``
anchors them to the epoch for cross-process ordering and the Chrome
trace export.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "resolve_telemetry",
    "CellTrace",
    "TracedCell",
    "span",
    "add",
    "set_counter",
    "active",
    "current",
    "activate",
    "deactivate",
    "write_record",
]


# ----------------------------------------------------------------------
# the telemetry= switch
# ----------------------------------------------------------------------
def resolve_telemetry(
    telemetry: object, *, store_path: Optional[Union[str, Path]] = None
) -> Tuple[bool, Optional[str]]:
    """Resolve the ``telemetry=`` argument every entry point takes into
    ``(on, trace_path)``.

    ``None``/``False`` → off.  ``True`` → on, with the trace file
    ``<store>.trace.jsonl`` next to a persistent store, or records kept
    in memory only (``trace_path`` None) for an ephemeral one.  A
    ``str``/path → on, tracing into that file.  Anything else raises
    :class:`TypeError`.
    """
    if telemetry is None or telemetry is False:
        return False, None
    if telemetry is True:
        if store_path is None:
            return True, None
        return True, str(Path(store_path).with_suffix(".trace.jsonl"))
    if isinstance(telemetry, (str, Path)):
        return True, str(telemetry)
    raise TypeError(
        "telemetry must be None or False (off), True (on) or a trace "
        f"file path (str or Path), got {telemetry!r}"
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One timed phase; records itself into its trace on exit."""

    __slots__ = ("_trace", "name", "t0", "t1", "depth")

    def __init__(self, trace: "CellTrace", name: str) -> None:
        self._trace = trace
        self.name = name
        self.t0 = 0.0
        self.t1 = 0.0
        self.depth = 0

    def __enter__(self) -> "_Span":
        trace = self._trace
        self.depth = len(trace._stack)
        trace._stack.append(self)
        self.t0 = time.perf_counter() - trace._t0
        return self

    def __exit__(self, *exc) -> bool:
        trace = self._trace
        self.t1 = time.perf_counter() - trace._t0
        trace._stack.pop()
        trace.spans.append(
            {
                "name": self.name,
                "t0": self.t0,
                "t1": self.t1,
                "depth": self.depth,
            }
        )
        return False


class CellTrace:
    """Telemetry collected while one cell executes.

    Spans nest (a stack tracks depth) and time monotonically via
    ``perf_counter`` offsets from the trace's start.  Counters are plain
    name → number accumulators (:meth:`add`) or absolute sets
    (:meth:`set`).
    """

    def __init__(
        self,
        key: str,
        *,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.key = str(key)
        self.meta = dict(meta or {})
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[_Span] = []
        self.t_wall = time.time()
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def record_phase(self, name: str, seconds: float) -> None:
        """Record an already-timed phase as a completed top-level span.

        For work that finished *before* the trace could exist — e.g. the
        service worker's lease acquisition, which only yields the cell
        key (and hence the trace) once it succeeds.  The span is pinned
        to the trace's start, so phase aggregation sees the true
        duration while ordering stays approximate.
        """
        self.spans.append(
            {"name": str(name), "t0": 0.0, "t1": float(seconds), "depth": 0}
        )

    def set(self, name: str, value: float) -> None:
        self.counters[name] = value

    # ------------------------------------------------------------------
    def finish(self, *, error: Optional[str] = None) -> Dict[str, object]:
        """Close the trace and return its flat JSON-safe record.

        Open spans (an exception unwound past them) are closed at the
        finish timestamp so the record never contains a dangling span.
        """
        end = time.perf_counter() - self._t0
        while self._stack:  # exception unwound past open spans
            dangling = self._stack.pop()
            self.spans.append(
                {
                    "name": dangling.name,
                    "t0": dangling.t0,
                    "t1": end,
                    "depth": dangling.depth,
                }
            )
        phases: Dict[str, float] = {}
        for s in self.spans:
            name = str(s["name"])
            phases[name] = phases.get(name, 0.0) + (
                float(s["t1"]) - float(s["t0"])  # type: ignore[arg-type]
            )
        record: Dict[str, object] = {
            "key": self.key,
            "pid": os.getpid(),
            "t_wall": self.t_wall,
            "elapsed": end,
            "error": error,
            "phases": {k: phases[k] for k in sorted(phases)},
            "spans": list(self.spans),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.meta:
            record["meta"] = dict(self.meta)
        return record


# ----------------------------------------------------------------------
# the per-process active trace
# ----------------------------------------------------------------------
_CURRENT: Optional[CellTrace] = None


def activate(trace: CellTrace) -> CellTrace:
    """Make ``trace`` the process's active trace (returned for chaining)."""
    global _CURRENT
    _CURRENT = trace
    return trace


def deactivate() -> None:
    """Clear the active trace (the no-op fast path is restored)."""
    global _CURRENT
    _CURRENT = None


def current() -> Optional[CellTrace]:
    """The active trace, or None when telemetry is disabled."""
    return _CURRENT


def active() -> bool:
    """True iff a trace is collecting in this process."""
    return _CURRENT is not None


def span(name: str):
    """A context manager timing ``name`` — the universal instrumentation
    hook.  With no active trace this is one global read returning a
    shared no-op object; the instrumented code path costs nothing."""
    trace = _CURRENT
    if trace is None:
        return _NULL_SPAN
    return trace.span(name)


def add(name: str, delta: float = 1) -> None:
    """Accumulate ``delta`` onto counter ``name`` (no-op when disabled)."""
    trace = _CURRENT
    if trace is not None:
        trace.add(name, delta)


def set_counter(name: str, value: float) -> None:
    """Set counter ``name`` to an absolute value (no-op when disabled)."""
    trace = _CURRENT
    if trace is not None:
        trace.set(name, value)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_record(path: Union[str, Path], record: Mapping[str, object]) -> None:
    """Append one record to a trace file, crash-safely.

    The whole line lands in a single ``write()`` on an append-mode
    handle, so concurrent workers' records never interleave and a kill
    mid-write truncates at most this one line (which
    :func:`repro.obs.report.load_trace` tolerates).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line)
        fh.flush()


# ----------------------------------------------------------------------
# one cell's trace, start to finish
# ----------------------------------------------------------------------
class TracedCell:
    """One cell's trace, opened and closed around a ``with`` block.

    With ``on`` false this does nothing and ``trace``/``record`` stay
    None.  With ``on`` true, entering activates a fresh
    :class:`CellTrace` for ``key``; leaving deactivates it and finishes
    it into ``record`` with ``error`` — set by the caller for a failure
    it caught, else the traceback of an exception leaving the block —
    and, when ``path`` is set, appends the record to that trace file.
    The campaign pool worker and the service worker both open their
    cells through this, so they write the same record.
    """

    __slots__ = ("trace", "path", "error", "record")

    def __init__(
        self,
        key: str,
        *,
        on: bool,
        path: Optional[str] = None,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.trace = CellTrace(key, meta=meta) if on else None
        self.path = path
        self.error: Optional[str] = None
        self.record: Optional[Dict[str, object]] = None

    def __enter__(self) -> "TracedCell":
        if self.trace is not None:
            activate(self.trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.trace is None:
            return False
        deactivate()
        if exc_type is not None and self.error is None:
            self.error = "".join(traceback.format_exception(exc_type, exc, tb))
        self.record = self.trace.finish(error=self.error)
        if self.path is not None:
            write_record(self.path, self.record)
        return False
