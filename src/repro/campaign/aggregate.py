"""Reduce stored campaign cells back into experiment tables.

The store holds one flat metrics dict per cell; figures and tables want
group-by reductions (typically: average over seeds, keep the swept axes).
This module provides the generic reduction —

    stored_records → group_reduce(by=..., values=...) → ExperimentResult

— so campaign output drops into the same rendering/consumption paths as
every artifact table (``result.render()``, assertions on ``result.raw``).

For the exact table reducers that sit above the engine,
:func:`labeled_metrics` joins a spec's case labels back to the stored
metrics of the cells each case expanded into — the lookup every
"rebuild the legacy table bit-for-bit" reducer starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.artifacts.result import ExperimentResult
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import ResultStore

__all__ = [
    "CellRecord",
    "unique_cells",
    "stored_records",
    "require_metrics",
    "labeled_metrics",
    "field_value",
    "mean_ci",
    "group_reduce",
    "aggregate_table",
]


@dataclass(frozen=True)
class CellRecord:
    """One stored cell, joined back to its spec.

    ``label`` is the case label the cell expanded from (None for
    campaigns without cases) — it is spec-level identity, so it rides on
    the record rather than the cell.
    """

    key: str
    cell: CellSpec
    metrics: Dict[str, object]
    label: Optional[str] = None


def unique_cells(spec: CampaignSpec) -> Dict[str, "CellSpec"]:
    """Key → cell for the spec's expansion (see ``CampaignSpec.unique_cells``)."""
    return spec.unique_cells()


def _unique_labeled(
    spec: CampaignSpec,
) -> Dict[str, Tuple[Optional[str], CellSpec]]:
    """Key → (case label, cell), deduplicated, first occurrence wins."""
    out: Dict[str, Tuple[Optional[str], CellSpec]] = {}
    for label, cell in spec.labeled_cells():
        out.setdefault(cell.key(), (label, cell))
    return out


def stored_records(spec: CampaignSpec, store: ResultStore) -> List[CellRecord]:
    """The spec's cells that ``store`` holds, in expansion order."""
    return [
        CellRecord(key=key, cell=cell, metrics=metrics, label=label)
        for key, (label, cell) in _unique_labeled(spec).items()
        if (metrics := store.metrics(key)) is not None
    ]


def require_metrics(
    store: ResultStore, cell: CellSpec, *, what: str, spec_name: str
) -> Dict[str, object]:
    """The cell's stored metrics, or the standard resume-hint ``KeyError``.

    ``what`` names the cell for the error (``"case 'R=3'"``,
    ``"scenario 5"``, ``"NoC=4"``); every reducer that reads the store
    directly goes through here so the missing-cell UX stays uniform.
    """
    metrics = store.metrics(cell.key())
    if metrics is None:
        raise KeyError(
            f"cell {cell.key()[:12]} ({what}) of campaign "
            f"{spec_name!r} is not in the store — run `resume` to fill "
            "missing cells"
        )
    return metrics


def labeled_metrics(
    spec: CampaignSpec, store: ResultStore
) -> Dict[str, Dict[str, object]]:
    """Case label → stored metrics, for single-cell-per-case campaigns.

    This is the reducer-side join used by the figure ports: every case of
    ``spec`` must have expanded to exactly one cell (one seed), and every
    cell must be in ``store``.  A missing cell raises with the resume
    hint; a multi-seed spec raises — averaging over seeds is
    :func:`group_reduce`'s job, not a bit-for-bit reducer's.
    """
    out: Dict[str, Dict[str, object]] = {}
    for label, cell in spec.labeled_cells():
        if label is None:
            raise ValueError(
                f"campaign {spec.name!r} has no cases; labeled_metrics needs "
                "a case-based spec"
            )
        if label in out:
            raise ValueError(
                f"case {label!r} of campaign {spec.name!r} expands to "
                "multiple cells (several seeds/topologies); reduce it with "
                "group_reduce/aggregate_table instead"
            )
        out[label] = require_metrics(
            store, cell, what=f"case {label!r}", spec_name=spec.name
        )
    return out


def field_value(record: CellRecord, name: str) -> object:
    """Resolve a group-by/value axis against one record.

    Lookup order: the cell identity axes (``seed``, ``topology``, the
    ``case`` label), then the cell's parameter overrides, then the
    stored metrics.
    """
    if name == "seed":
        return record.cell.seed
    if name == "topology":
        return record.cell.topology.label
    if name == "case":
        if record.label is None:
            raise KeyError(
                "field 'case': this campaign has no cases to group by"
            )
        return record.label
    if name in record.cell.params:
        return record.cell.params[name]
    if name in record.metrics:
        return record.metrics[name]
    raise KeyError(
        f"unknown field {name!r}; cell params: {sorted(record.cell.params)}, "
        f"metrics: {sorted(record.metrics)}"
    )


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and normal-approximation 95 % half-interval (0 for n < 2)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n < 2:
        return float(mean), 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return float(mean), float(1.96 * math.sqrt(var / n))


def group_reduce(
    records: Sequence[CellRecord],
    by: Sequence[str],
    values: Sequence[str],
) -> List[List[object]]:
    """Group records on ``by``; reduce each value to mean ± CI and count.

    Returns rows ``[*group, mean_1, ci_1, ..., mean_k, ci_k, n]`` sorted
    by group key.
    """
    groups: Dict[Tuple[object, ...], List[CellRecord]] = {}
    order: List[Tuple[object, ...]] = []
    for record in records:
        group = tuple(field_value(record, b) for b in by)
        if group not in groups:
            groups[group] = []
            order.append(group)
        groups[group].append(record)

    def sort_key(group: Tuple[object, ...]):
        return tuple(
            (0, v) if isinstance(v, (int, float)) else (1, str(v)) for v in group
        )

    rows: List[List[object]] = []
    for group in sorted(order, key=sort_key):
        members = groups[group]
        row: List[object] = list(group)
        for value in values:
            try:
                series = [float(field_value(r, value)) for r in members]  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ValueError(
                    f"metric {value!r} is not scalar-reducible "
                    f"(got {type(field_value(members[0], value)).__name__}); "
                    "pick scalar metrics for group_reduce"
                ) from None
            mean, half = mean_ci(series)
            row.extend([round(mean, 4), round(half, 4)])
        row.append(len(members))
        rows.append(row)
    return rows


def _default_values(records: Sequence[CellRecord]) -> List[str]:
    """Scalar numeric metrics present in every record (sorted)."""
    if not records:
        return []
    names = set(records[0].metrics)
    for record in records[1:]:
        names &= set(record.metrics)
    return sorted(
        n
        for n in names
        if isinstance(records[0].metrics[n], (int, float))
        and not isinstance(records[0].metrics[n], bool)
    )


def aggregate_table(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    by: Optional[Sequence[str]] = None,
    values: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> ExperimentResult:
    """Group-by/mean/CI table over the spec's stored cells.

    Defaults: group on topology, the case label (for case-based specs)
    and every grid axis — i.e. averaging over seeds only — and reduce
    every scalar numeric metric.
    """
    cells = spec.unique_cells()
    records = stored_records(spec, store)
    if by is None:
        by = (
            ["topology"]
            + (["case"] if spec.cases else [])
            + sorted(spec.grid)
        )
    if values is None:
        values = _default_values(records)
    headers = list(by)
    for value in values:
        headers.extend([value, f"{value} ±95%"])
    headers.append("n")
    rows = group_reduce(records, by, values)
    done, total = len(records), len(cells)
    notes = [f"{done}/{total} cells aggregated (mean ± normal 95% CI over group)"]
    if done < total:
        notes.append("store is incomplete — run `resume` to fill missing cells")
    return ExperimentResult(
        exp_id=f"campaign:{spec.name}",
        title=title or f"Campaign {spec.name} — {', '.join(values) or 'no metrics'}",
        headers=headers,
        rows=rows,
        notes=notes,
        raw={"records": records, "by": list(by), "values": list(values)},
    )
