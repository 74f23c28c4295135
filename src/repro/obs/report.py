"""Aggregate ``trace.jsonl`` into tables and Chrome-trace exports.

The reporting surface over :mod:`repro.obs.trace` records:

* :func:`load_trace` — read a trace file with the same truncated-line
  tolerance as ``ResultStore.load`` (a killed worker leaves at most one
  unparsable trailing line; it is skipped and counted, never fatal);
* :func:`summarize` — one :class:`TraceSummary` per record set: cell
  counts, throughput, per-phase wall-time aggregates and summed
  counters.  Orderings are deterministic (phases and counters sort by
  name), so a serial (``n_workers=1``) re-run of the same campaign
  yields a table with identical structure;
* :func:`slowest` — the top-N cells by wall time with their dominant
  phase, for "where did the time go" triage;
* :func:`chrome_trace` — the record set as ``chrome://tracing`` /
  Perfetto JSON (complete ``"X"`` events, one track per worker pid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.util.tables import format_table

__all__ = [
    "TraceLog",
    "PhaseStat",
    "TraceSummary",
    "load_trace",
    "summarize",
    "slowest",
    "chrome_trace",
]


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
@dataclass
class TraceLog:
    """A loaded trace file: its parsable records plus corruption count."""

    records: List[Dict[str, object]]
    #: unparsable/foreign lines skipped (0 = clean file)
    corrupt_lines: int = 0
    path: Optional[Path] = None

    def __len__(self) -> int:
        return len(self.records)


def load_trace(path: Union[str, Path]) -> TraceLog:
    """Read a ``trace.jsonl`` file, skipping anything unparsable.

    Tolerates the truncated final line a killed worker leaves behind and
    foreign/garbage lines alike — mirroring
    :meth:`repro.campaign.store.ResultStore.load` — so a crash during a
    traced campaign never poisons the telemetry that explains it.
    """
    path = Path(path)
    records: List[Dict[str, object]] = []
    corrupt = 0
    if not path.exists():
        return TraceLog(records=records, corrupt_lines=0, path=path)
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(record, dict) or "key" not in record:
                corrupt += 1
                continue
            records.append(record)
    return TraceLog(records=records, corrupt_lines=corrupt, path=path)


def _as_records(
    records: Union[TraceLog, Sequence[Mapping[str, object]]]
) -> List[Mapping[str, object]]:
    if isinstance(records, TraceLog):
        return list(records.records)
    return list(records)


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
@dataclass
class PhaseStat:
    """Wall-time aggregate of one span name across cells."""

    name: str
    #: spans recorded under this name (≥ cells when a phase repeats)
    count: int
    #: distinct cells that recorded the phase at least once
    cells: int
    total: float
    mean: float
    max: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": int(self.count),
            "cells": int(self.cells),
            "total": float(self.total),
            "mean": float(self.mean),
            "max": float(self.max),
        }


@dataclass
class TraceSummary:
    """Deterministic aggregate view of one trace record set."""

    cells: int
    failed: int
    #: sum of per-cell wall times (CPU-ish work, overlaps under workers)
    total_cell_seconds: float
    #: first-start to last-finish wall-clock span across all workers
    wall_span: float
    cells_per_second: float
    workers: int
    #: per span name, sorted by name (stable across runs)
    phases: List[PhaseStat] = field(default_factory=list)
    #: counters summed across cells, sorted by name
    counters: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "cells": int(self.cells),
            "failed": int(self.failed),
            "total_cell_seconds": float(self.total_cell_seconds),
            "wall_span": float(self.wall_span),
            "cells_per_second": float(self.cells_per_second),
            "workers": int(self.workers),
            "phases": [p.as_dict() for p in self.phases],
            "counters": dict(self.counters),
        }

    def render(self) -> str:
        """The ``trace summary`` table: headline line + per-phase table."""
        head = (
            f"{self.cells} cells ({self.failed} failed), "
            f"{self.total_cell_seconds:.2f} cell-seconds over "
            f"{self.wall_span:.2f}s wall ({self.cells_per_second:.2f} "
            f"cells/s, {self.workers} worker{'s' if self.workers != 1 else ''})"
        )
        busy = sum(p.total for p in self.phases)
        rows = [
            [
                p.name,
                p.cells,
                p.count,
                f"{p.total:.3f}",
                f"{p.mean * 1e3:.1f}",
                f"{p.max * 1e3:.1f}",
                f"{(100.0 * p.total / busy) if busy else 0.0:.1f}",
            ]
            for p in self.phases
        ]
        table = format_table(
            ["phase", "cells", "spans", "total s", "mean ms", "max ms", "%"],
            rows,
            title="== trace summary: per-phase wall time ==",
        )
        parts = [head, table]
        if self.counters:
            counter_rows = [
                [name, f"{value:g}"] for name, value in self.counters.items()
            ]
            parts.append(
                format_table(["counter", "total"], counter_rows)
            )
        return "\n\n".join(parts)


def summarize(
    records: Union[TraceLog, Sequence[Mapping[str, object]]]
) -> TraceSummary:
    """Aggregate trace records into a :class:`TraceSummary`.

    Empty input yields an all-zero summary (renderable, never raises),
    so callers can summarize unconditionally.
    """
    recs = _as_records(records)
    if not recs:
        return TraceSummary(
            cells=0, failed=0, total_cell_seconds=0.0, wall_span=0.0,
            cells_per_second=0.0, workers=0,
        )
    phase_total: Dict[str, float] = {}
    phase_count: Dict[str, int] = {}
    phase_cells: Dict[str, int] = {}
    phase_max: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    starts: List[float] = []
    ends: List[float] = []
    pids = set()
    failed = 0
    total_cell_seconds = 0.0
    for rec in recs:
        elapsed = float(rec.get("elapsed", 0.0))  # type: ignore[arg-type]
        total_cell_seconds += elapsed
        if rec.get("error"):
            failed += 1
        t_wall = rec.get("t_wall")
        if t_wall is not None:
            starts.append(float(t_wall))  # type: ignore[arg-type]
            ends.append(float(t_wall) + elapsed)  # type: ignore[arg-type]
        if rec.get("pid") is not None:
            pids.add(rec["pid"])
        for name, seconds in dict(rec.get("phases") or {}).items():  # type: ignore[call-overload]
            seconds = float(seconds)
            phase_total[name] = phase_total.get(name, 0.0) + seconds
            phase_cells[name] = phase_cells.get(name, 0) + 1
            phase_max[name] = max(phase_max.get(name, 0.0), seconds)
        for s in list(rec.get("spans") or []):  # type: ignore[call-overload]
            name = str(s.get("name"))
            phase_count[name] = phase_count.get(name, 0) + 1
        for name, value in dict(rec.get("counters") or {}).items():  # type: ignore[call-overload]
            counters[name] = counters.get(name, 0) + float(value)
    wall_span = (max(ends) - min(starts)) if starts else total_cell_seconds
    phases = [
        PhaseStat(
            name=name,
            count=phase_count.get(name, phase_cells[name]),
            cells=phase_cells[name],
            total=phase_total[name],
            mean=phase_total[name] / max(phase_count.get(name, phase_cells[name]), 1),
            max=phase_max[name],
        )
        for name in sorted(phase_total)
    ]
    return TraceSummary(
        cells=len(recs),
        failed=failed,
        total_cell_seconds=total_cell_seconds,
        wall_span=wall_span,
        # throughput counts completed cells only — failed cells produced
        # no result, so counting them would overstate the campaign rate
        cells_per_second=(
            (len(recs) - failed) / wall_span if wall_span > 0 else 0.0
        ),
        workers=len(pids),
        phases=phases,
        counters={k: counters[k] for k in sorted(counters)},
    )


# ----------------------------------------------------------------------
# slowest cells
# ----------------------------------------------------------------------
def slowest(
    records: Union[TraceLog, Sequence[Mapping[str, object]]],
    limit: int = 10,
) -> List[Dict[str, object]]:
    """The ``limit`` slowest cells: key, elapsed, dominant phase, error.

    Sorted by elapsed descending with the cell key as tiebreak, so the
    output is deterministic even when two cells tie.
    """
    rows: List[Dict[str, object]] = []
    for rec in _as_records(records):
        phases = dict(rec.get("phases") or {})  # type: ignore[call-overload]
        dominant = (
            max(sorted(phases), key=lambda name: phases[name])
            if phases
            else ""
        )
        rows.append(
            {
                "key": str(rec.get("key", "")),
                "elapsed": float(rec.get("elapsed", 0.0)),  # type: ignore[arg-type]
                "dominant_phase": dominant,
                "dominant_seconds": float(phases.get(dominant, 0.0)),
                "pid": rec.get("pid"),
                "error": bool(rec.get("error")),
            }
        )
    rows.sort(key=lambda r: (-r["elapsed"], r["key"]))  # type: ignore[operator,index]
    return rows[: int(limit)]


def render_slowest(rows: Sequence[Mapping[str, object]]) -> str:
    table_rows = [
        [
            str(r["key"])[:12],
            f"{float(r['elapsed']):.3f}",  # type: ignore[arg-type]
            r["dominant_phase"],
            f"{float(r['dominant_seconds']):.3f}",  # type: ignore[arg-type]
            "FAILED" if r["error"] else "ok",
        ]
        for r in rows
    ]
    return format_table(
        ["cell", "elapsed s", "dominant phase", "phase s", "status"],
        table_rows,
        title="== trace: slowest cells ==",
    )


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------
def chrome_trace(
    records: Union[TraceLog, Sequence[Mapping[str, object]]]
) -> Dict[str, object]:
    """Records as a ``chrome://tracing`` / Perfetto JSON object.

    Every span becomes a complete (``"ph": "X"``) event on its worker
    pid's track; timestamps are microseconds from the earliest cell
    start, so the view opens at t=0.  Load the written file via
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    recs = _as_records(records)
    starts = [float(r["t_wall"]) for r in recs if r.get("t_wall") is not None]  # type: ignore[arg-type]
    base = min(starts) if starts else 0.0
    events: List[Dict[str, object]] = []
    for rec in recs:
        pid = int(rec.get("pid") or 0)
        offset = (float(rec.get("t_wall", base)) - base) * 1e6  # type: ignore[arg-type]
        key = str(rec.get("key", ""))[:12]
        events.append(
            {
                "name": f"cell {key}",
                "cat": "cell",
                "ph": "X",
                "ts": offset,
                "dur": float(rec.get("elapsed", 0.0)) * 1e6,  # type: ignore[arg-type]
                "pid": pid,
                "tid": pid,
                "args": {"key": rec.get("key"), "error": rec.get("error")},
            }
        )
        for s in list(rec.get("spans") or []):  # type: ignore[call-overload]
            events.append(
                {
                    "name": str(s.get("name")),
                    "cat": "phase",
                    "ph": "X",
                    "ts": offset + float(s.get("t0", 0.0)) * 1e6,
                    "dur": (float(s.get("t1", 0.0)) - float(s.get("t0", 0.0)))
                    * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": {"cell": key, "depth": s.get("depth")},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
