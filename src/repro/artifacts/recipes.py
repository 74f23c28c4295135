"""The shared pieces every artifact definition is built from.

Every result in the paper is the same experiment — sweep one CARD knob
over a fixed topology, read one metric family, print one table — so the
definitions in :mod:`repro.artifacts.definitions` are data over a few
parts that live here:

* :class:`Sweep` — the one spec recipe: ``scaled(base_n)`` nodes on the
  standard topology, base parameters, labelled cases (or a grid) and the
  regime knobs, turned into a :class:`~repro.campaign.spec.CampaignSpec`
  when called with the artifact's options;
* :func:`distribution`, :func:`series`, :func:`variant_rows` — one
  reducer per table family: reachability histograms (Figs 5–9), per-bin
  time series (Figs 10–12) and one-row-per-case tables laid out by
  ``(header, source, digits, scale)`` column tuples (Fig 15, every
  ablation and extension).

A reducer is ``(spec, store, *, exp_id, title, …) -> ExperimentResult``
and rebuilds the pinned table bit-for-bit from stored cells; notes are
``str.format`` templates over :func:`note_context`, so they describe the
spec that actually ran.  Nothing here knows an artifact id.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts.result import ExperimentResult
from repro.campaign.aggregate import labeled_metrics, require_metrics
from repro.campaign.spec import (
    CampaignSpec,
    CaseSpec,
    MobilitySpec,
    TopologySpec,
)
from repro.campaign.store import CellStore
from repro.core.reachability import DIST_BIN_EDGES
from repro.scenarios.factory import scaled
from repro.util.ascii_plot import ascii_histogram, ascii_series

__all__ = [
    "DEFAULT_MOBILITY",
    "Sweep",
    "case",
    "case_value",
    "standard",
    "sized_topology",
    "require_single_seed",
    "note_context",
    "format_notes",
    "distribution",
    "series",
    "variant_rows",
    "mean_of",
]

#: mobility of the overhead experiments (Figs 10-12, the DES extension):
#: moderate pedestrian-to-vehicle speeds with short pauses.  The paper
#: does not print its setdest parameters; this regime keeps churn low
#: enough that re-selection cost is governed by the admission-region
#: geometry (the effect Figs 11/12 isolate) rather than by raw path
#: breakage.
DEFAULT_MOBILITY = MobilitySpec(model="rwp", min_speed=0.5, max_speed=5.0, pause=2.0)


# ----------------------------------------------------------------------
# the spec recipe
# ----------------------------------------------------------------------
def standard(num_nodes: int, salt: object) -> TopologySpec:
    """The paper's workhorse topology at ``num_nodes``, drawn under ``salt``."""
    return TopologySpec(kind="standard", num_nodes=num_nodes, salt=salt)


def sized_topology(cfg, scale: float, salt_prefix: str) -> TopologySpec:
    """A Fig 9/15 configuration's topology, density-matched when scaled."""
    n = scaled(cfg.num_nodes, scale, minimum=60)
    side = cfg.area[0]
    if n != cfg.num_nodes:
        side *= float(np.sqrt(n / cfg.num_nodes))
    return TopologySpec(
        kind="explicit",
        num_nodes=n,
        area=(side, side),
        tx_range=50.0,
        salt=(salt_prefix, cfg.num_nodes),
    )


def case(
    label: str, *, topology=None, mobility=None, workload=None, des=None, **params
) -> CaseSpec:
    """One labelled sweep point; bare keywords are its parameter overrides."""
    return CaseSpec(
        label=label,
        params=params,
        topology=topology,
        mobility=mobility,
        workload=workload,
        des=des,
    )


def case_value(case_or_label) -> int:
    """The swept integer out of a ``<knob>=<k>`` case label."""
    label = getattr(case_or_label, "label", case_or_label)
    return int(label.rsplit("=", 1)[1])


@dataclass(frozen=True)
class Sweep:
    """One knob swept over the standard topology — the spec of an artifact.

    ``options`` maps every option the artifact accepts (beside ``scale``
    and ``seed``) to its default; ``base``, ``cases`` and ``grid`` are
    functions of the resolved options ``o`` (a namespace that also
    carries ``o.scale`` and the scaled node count ``o.n``).  ``salt``
    names the shared topology draw; recipes whose cases each bring their
    own topology leave it None.  ``duration`` reaches the spec where the
    ``series`` family is measured (a ``des`` case carries its own).
    ``workload`` lists the options copied into the query workload —
    those families draw their own (source, target) pairs, so
    ``num_sources`` is accepted but not applied.
    ``name`` pins the campaign name when several artifacts share the
    recipe under one.
    """

    metrics: Tuple[str, ...]
    options: Mapping[str, object]
    cases: Callable[[SimpleNamespace], Sequence[CaseSpec]] = lambda o: ()
    base: Callable[[SimpleNamespace], Mapping[str, object]] = lambda o: {}
    grid: Callable[[SimpleNamespace], Mapping[str, Sequence]] = lambda o: {}
    salt: Optional[str] = None
    base_n: int = 500
    min_n: int = 80
    mobility: Optional[MobilitySpec] = None
    workload: Tuple[str, ...] = ()
    full_selection: bool = False
    name: Optional[str] = None

    def __call__(
        self, *, name: str, description: str, scale: float, seed: int = 0, **given
    ) -> CampaignSpec:
        o = SimpleNamespace(**{**self.options, **given})
        o.scale = scale
        o.n = scaled(self.base_n, scale, minimum=self.min_n)
        seeds = getattr(o, "seeds", None)
        return CampaignSpec(
            name=self.name or name,
            description=description,
            topologies=(standard(o.n, self.salt),) if self.salt else (),
            base_params=self.base(o),
            grid=self.grid(o),
            cases=tuple(self.cases(o)),
            seeds=tuple(seeds) if seeds is not None else (seed,),
            metrics=self.metrics,
            num_sources=None if self.workload else o.num_sources,
            duration=o.duration if "series" in self.metrics else None,
            mobility=self.mobility,
            workload={k: getattr(o, k) for k in self.workload} or None,
            full_selection=self.full_selection,
        )


# ----------------------------------------------------------------------
# reducer plumbing
# ----------------------------------------------------------------------
def require_single_seed(spec: CampaignSpec) -> None:
    """Bit-for-bit reducers refuse multi-seed specs instead of silently
    keying cells by label/scenario (later seeds would overwrite earlier
    ones).  Averaging over seeds is ``group_reduce``'s job — use
    ``repro.api.run(id, seeds=(…))`` for the mean ± CI variant.
    ``Artifact.run`` applies the same check *before* executing the sweep."""
    if len(set(spec.seeds)) > 1:
        raise ValueError(
            f"campaign {spec.name!r} spans seeds {tuple(spec.seeds)}; a "
            "bit-for-bit reducer needs exactly one — use "
            "repro.api.run(..., seeds=...) / aggregate.group_reduce for "
            "the mean±CI variant"
        )


def note_context(spec: CampaignSpec) -> Dict[str, object]:
    """What a note template may name: ``n``, the base parameters and
    workload knobs by name, ``duration``, the mobility ``speed`` band and
    ``pause``, and the first case's ``des`` configuration."""
    first = spec.cases[0] if spec.cases else None
    topology = spec.topologies[0] if spec.topologies else first.topology
    ctx: Dict[str, object] = {
        "n": topology.num_nodes,
        "duration": spec.duration,
        "des": first.des if first is not None else None,
        **(spec.workload or {}),
        **spec.base_params,
    }
    if spec.mobility is not None:
        ctx["speed"] = (spec.mobility.min_speed, spec.mobility.max_speed)
        ctx["pause"] = spec.mobility.pause
    return ctx


def format_notes(notes: Sequence[str], spec: CampaignSpec, **extra) -> List[str]:
    ctx = {**note_context(spec), **extra}
    return [note.format(**ctx) for note in notes]


def _by_label(
    spec: CampaignSpec, store: CellStore, grid_label: Optional[str]
) -> Dict[str, Dict[str, object]]:
    """Label → stored metrics, in sweep order; grid cells (no cases) are
    labelled by formatting ``grid_label`` with their parameters."""
    if spec.cases:
        return labeled_metrics(spec, store)
    require_single_seed(spec)
    out = {}
    for cell in spec.expand():
        label = grid_label.format(**cell.params)
        out[label] = require_metrics(store, cell, what=label, spec_name=spec.name)
    return out


def mean_of(*keys: str) -> Callable[[Mapping[str, object]], float]:
    """Column source: the sum of the per-bin means of the named series."""
    return lambda m: sum(float(np.mean(m[k])) for k in keys)


# ----------------------------------------------------------------------
# the three table families
# ----------------------------------------------------------------------
def distribution(
    spec: CampaignSpec,
    store: CellStore,
    *,
    exp_id: str,
    title: str,
    notes: Sequence[str],
    plot: str = "last",
    grid_label: Optional[str] = None,
) -> ExperimentResult:
    """Figs 5-9: reachability bins × sweep values, plus a mean% row and
    the histogram of one column (the ``last`` swept, or the ``max``)."""
    by_label = _by_label(spec, store, grid_label)
    columns = {
        label: np.asarray(m["distribution"], dtype=np.int64)
        for label, m in by_label.items()
    }
    means = {label: float(m["mean_reachability"]) for label, m in by_label.items()}
    edges = [int(e) for e in DIST_BIN_EDGES]
    rows: List[List[object]] = [
        [edge] + [int(col[b]) for col in columns.values()]
        for b, edge in enumerate(edges)
    ]
    rows.append(["mean%"] + [round(means[c], 2) for c in columns])
    shown = max(columns, key=case_value) if plot == "max" else list(columns)[-1]
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=["Reach% bin"] + list(columns),
        rows=rows,
        notes=format_notes(notes, spec),
        plots=[
            ascii_histogram(
                edges,
                columns[shown].tolist(),
                title=f"{title} — distribution at {shown}",
            )
        ],
        raw={"columns": columns, "means": means},
    )


def series(
    spec: CampaignSpec,
    store: CellStore,
    *,
    exp_id: str,
    title: str,
    notes: Sequence[str],
    ylabel: str,
    series: str = "overhead",
) -> ExperimentResult:
    """Figs 10-12: one row per time bin, one column per case, reading the
    named per-bin ``series`` of every cell."""
    by_label = labeled_metrics(spec, store)
    labels = list(by_label)
    times = by_label[labels[0]]["times"]
    curves = {l: by_label[l][series] for l in labels}
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=["t (s)"] + labels,
        rows=[
            [t] + [round(curves[l][i], 2) for l in labels]
            for i, t in enumerate(times)
        ],
        notes=format_notes(notes, spec),
        plots=[
            ascii_series(
                {l: list(curves[l]) for l in labels},
                list(times),
                title=f"{title} — {ylabel}",
            )
        ],
        raw=by_label,
    )


def _cell_value(m: Mapping[str, object], source, digits=None, scale=1):
    """One table cell: ``source`` is a metric key or a function of the
    cell's metrics; ``digits`` None keeps an integer, otherwise the value
    is scaled and rounded."""
    value = source(m) if callable(source) else m[source]
    return int(value) if digits is None else round(scale * float(value), digits)


def _label_of(c: CaseSpec) -> str:
    return c.label


def variant_rows(
    spec: CampaignSpec,
    store: CellStore,
    *,
    exp_id: str,
    title: str,
    first: str,
    columns: Sequence[tuple],
    notes: Sequence[str],
    key: Callable[[CaseSpec], object] = _label_of,
    raw_key: Optional[Callable[[CaseSpec], object]] = _label_of,
    plot: Optional[Callable[[Dict[str, dict], List[list]], str]] = None,
) -> ExperimentResult:
    """One row per case, laid out by column tuples.

    ``first`` heads the leading column, filled with ``key(case)``; every
    other column is ``(header, source[, digits[, scale]])`` (see
    :func:`_cell_value`).  ``raw`` keeps each case's stored metrics under
    ``raw_key(case)`` (None: no raw payload); ``plot`` draws one figure
    from the label → metrics join and the finished rows.
    """
    by_label = labeled_metrics(spec, store)
    rows = [
        [key(c)] + [_cell_value(by_label[c.label], *col[1:]) for col in columns]
        for c in spec.cases
    ]
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=[first] + [col[0] for col in columns],
        rows=rows,
        notes=format_notes(notes, spec),
        plots=[plot(by_label, rows)] if plot is not None else [],
        raw={raw_key(c): by_label[c.label] for c in spec.cases} if raw_key else {},
    )
