"""Every paper figure/table as a campaign spec builder + store reducer.

Each artifact ``<id>`` is declared in two halves:

* ``<id>_spec(**kwargs)`` builds the
  :class:`~repro.campaign.spec.CampaignSpec` — one content-hashed cell
  per swept configuration, executed through the
  :class:`~repro.campaign.runner.CampaignRunner` (cached,
  parallelisable, shardable, resumable);
* ``reduce_<id>(spec, store, **kwargs)`` turns the stored cells back
  into the **exact** table the paper artifact prints — same headers,
  same rows, same ASCII plots — via the shared assembly in
  :mod:`repro.artifacts.tables`.

:mod:`repro.artifacts.registry` binds the halves (plus metadata) into
:class:`~repro.artifacts.registry.Artifact` objects; the golden matrix
in ``tests/test_golden_artifacts.py`` (``pytest -m parity``) holds every
reduced artifact bit-for-bit equal to its pinned fixture under
``tests/golden/``, across seeds and worker counts.  (The fixtures were
captured from the campaign path while the deleted
``repro.experiments.legacy`` oracles still proved it equal to an
independent implementation.)

Why the numbers match the historical per-figure runners exactly:

* *distribution figures* (Figs 3-9, 14, smallworld) — contact selection
  is sequential, so an independent NoC=k cell equals the first k
  contacts of a legacy NoC=max sweep, including the per-contact message
  marks (the property ``SnapshotRunner.sweep_noc`` documents); topology,
  source-sample and protocol seeds are derived identically;
* *time-series figures* (Figs 10-13, mobility/recovery ablations, the
  campaign-native ``mobility_rate`` sweep) — a cell rebuilds the same
  topology and mobility streams from its own seed, so
  ``TimeSeriesRunner`` emits the same binned series the legacy loop
  recorded;
* *workload figures* (Fig 15, query/failure ablations) — the executor
  mirrors the legacy construction order (same namespaced RNG streams),
  one cell per topology/scheme.

Because cells are keyed by content hash, artifacts overlap in the store:
``fig12`` re-reads ``fig11``'s cells, ``fig04`` re-reads a prefix of
``fig03``'s, and a shared ``--store`` turns the whole evaluation into
one incremental artifact set.  The cell schema is untouched by this
module's split into builders and reducers, so stores written before the
campaign-first flip stay warm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts.result import ExperimentResult
from repro.artifacts.tables import (
    ABLATION_MOBILITY_CONFIGS,
    DEFAULT_PAUSE,
    DEFAULT_SPEED,
    FIG13_SPEED,
    OVERLAP_VARIANTS,
    PM_EQ_VARIANTS,
    TABLE1_HEADERS,
    des_latency_table,
    distribution_table,
    failures_table,
    fig13_hop_params,
    fig13_table,
    fig15_table,
    edge_policy_row,
    edge_policy_table,
    mobility_rate_table,
    mobility_row,
    mobility_table,
    overlap_row,
    overlap_table,
    pm_em_table,
    pm_eq_row,
    pm_eq_table,
    query_row,
    query_table,
    recovery_row,
    recovery_table,
    scenario_row,
    series_table,
    smallworld_row,
    smallworld_table,
    table1_notes,
    tradeoff_table,
)
from repro.campaign.aggregate import labeled_metrics, require_metrics
from repro.campaign.spec import (
    CampaignSpec,
    CaseSpec,
    DesSpec,
    MobilitySpec,
    TopologySpec,
)
from repro.campaign.store import ResultStore
from repro.scenarios.factory import FIG9_CONFIGS, FIG15_CONFIGS, scaled
from repro.scenarios.table1 import TABLE1_SCENARIOS

__all__ = [
    # spec builders
    "fig03_04_spec",
    "fig05_spec",
    "fig06_spec",
    "fig07_spec",
    "fig08_spec",
    "fig09_spec",
    "fig10_spec",
    "fig11_spec",
    "fig12_spec",
    "fig13_spec",
    "fig14_spec",
    "fig15_spec",
    "table1_spec",
    "ablation_pm_eq_spec",
    "ablation_overlap_spec",
    "ablation_recovery_spec",
    "ablation_query_spec",
    "ablation_mobility_spec",
    "ablation_failures_spec",
    "ablation_edge_policy_spec",
    "smallworld_spec",
    "mobility_rate_spec",
    "fig_des_latency_spec",
    "fig07_ci_spec",
    "table1_ci_spec",
    # store reducers (legacy-table-identical)
    "reduce_fig03",
    "reduce_fig04",
    "reduce_fig03_04",
    "reduce_fig05",
    "reduce_fig06",
    "reduce_fig07",
    "reduce_fig08",
    "reduce_fig09",
    "reduce_fig10",
    "reduce_fig11",
    "reduce_fig12",
    "reduce_fig13",
    "reduce_fig14",
    "reduce_fig15",
    "reduce_table1",
    "reduce_ablation_pm_eq",
    "reduce_ablation_overlap",
    "reduce_ablation_recovery",
    "reduce_ablation_query",
    "reduce_ablation_mobility",
    "reduce_ablation_failures",
    "reduce_ablation_edge_policy",
    "reduce_smallworld",
    "reduce_mobility_rate",
    "reduce_fig_des_latency",
    "reduce_fig07_ci",
    "reduce_table1_ci",
    "DEFAULT_CI_SEEDS",
    "require_single_seed",
]


def _case_noc(label: str) -> int:
    """The NoC value out of a ``...NoC=k`` case label."""
    return int(label.rsplit("=", 1)[1])


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


#: default mobility of the Figs 10-12 overhead experiments (moderate RWP)
def _default_mobility() -> MobilitySpec:
    return MobilitySpec(
        model="rwp",
        min_speed=DEFAULT_SPEED[0],
        max_speed=DEFAULT_SPEED[1],
        pause=DEFAULT_PAUSE,
    )


# ----------------------------------------------------------------------
# Figs 3 & 4 — PM vs EM (reachability + backtracking vs NoC)
# ----------------------------------------------------------------------
def fig03_04_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    max_noc: int = 9,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Figs 3+4 as a campaign: one cell per (method, NoC) pair."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=f"{method} NoC={k}", params={"method": method, "noc": k})
        for method in ("PM", "EM")
        for k in range(1, max_noc + 1)
    )
    return CampaignSpec(
        name="fig03_04",
        description="Figs 3 & 4 — PM vs EM reachability and backtracking vs NoC",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig03"),),
        base_params={"R": 3, "r": 20, "depth": 1},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability", "overhead"),
        num_sources=num_sources,
    )


def reduce_fig03_04(
    spec: CampaignSpec, store: ResultStore, *, scale: float = 1.0
) -> ExperimentResult:
    """Figs 3+4 from stored cells (matches ``legacy.run_fig03_04``)."""
    by_label = labeled_metrics(spec, store)
    noc_values = sorted(
        {_case_noc(c.label) for c in spec.cases if c.label.startswith("PM")}
    )
    sweeps: Dict[str, List[tuple]] = {}
    for method in ("PM", "EM"):
        sweeps[method] = [
            (
                int(k),
                float(m["mean_reachability"]),
                float(m["selection_msgs_per_source"]),
                float(m["backtrack_msgs_per_source"]),
            )
            for k in noc_values
            for m in [by_label[f"{method} NoC={k}"]]
        ]
    return pm_em_table(noc_values, sweeps["PM"], sweeps["EM"], scale=scale)


def reduce_fig03(
    spec: CampaignSpec, store: ResultStore, *, scale: float = 1.0
) -> ExperimentResult:
    """Fig 3 alone (a relabeled view of the joint reduction)."""
    res = reduce_fig03_04(spec, store, scale=scale)
    res.exp_id = "fig03"
    return res


def reduce_fig04(
    spec: CampaignSpec, store: ResultStore, *, scale: float = 1.0
) -> ExperimentResult:
    """Fig 4 alone (NoC=1..5, a cache-shared prefix of Fig 3's cells)."""
    res = reduce_fig03_04(spec, store, scale=scale)
    res.exp_id = "fig04"
    return res


# ----------------------------------------------------------------------
# Figs 5/6/8 — reachability distributions over R / r / D
# ----------------------------------------------------------------------
def fig05_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    r: int = 16,
    noc: int = 10,
    radii: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 5 as a campaign: one cell per (runnable) neighborhood radius."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=f"R={R}", params={"R": R})
        for R in radii
        if 2 * R <= r
    )
    if not cases:
        raise ValueError(
            f"no runnable radius in {tuple(radii)}: every R violates r>=2R "
            f"(r={r})"
        )
    return CampaignSpec(
        name="fig05",
        description="Fig 5 — Effect of Neighborhood Radius (R) on Reachability",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig05"),),
        base_params={"r": r, "noc": noc, "depth": 1},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability",),
        num_sources=num_sources,
    )


def _distribution_reduce(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    exp_id: str,
    title: str,
    notes: List[str],
    plot_key: Optional[str],
) -> ExperimentResult:
    """Shared Figs 5-9 reducer: stored cells → bins × sweep-values table."""
    by_label = labeled_metrics(spec, store)
    columns = {
        label: np.asarray(m["distribution"], dtype=np.int64)
        for label, m in by_label.items()
    }
    means = {label: float(m["mean_reachability"]) for label, m in by_label.items()}
    return distribution_table(
        columns,
        means,
        exp_id=exp_id,
        title=title,
        notes=notes,
        plot_key=plot_key,
    )


def reduce_fig05(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    radii: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
) -> ExperimentResult:
    """Fig 5 from stored cells (matches ``legacy.run_fig05``).

    ``radii`` is only needed to note the swept-but-unrunnable radii —
    the spec carries no trace of cases it refused to build.
    """
    n = spec.topologies[0].num_nodes
    r = int(spec.base_params["r"])
    noc = int(spec.base_params["noc"])
    skipped = [R for R in radii if 2 * R > r]
    notes = [
        "paper: distribution shifts right as R grows, then collapses once "
        "2R approaches r (contact region vanishes)",
        f"N={n}, r={r}, NoC={noc}, D=1",
    ]
    if skipped:
        notes.append(f"radii {skipped} violate r>=2R and are not runnable")
    labels = [c.label for c in spec.cases]
    return _distribution_reduce(
        spec,
        store,
        exp_id="fig05",
        title="Fig 5 — Effect of Neighborhood Radius (R) on Reachability",
        notes=notes,
        plot_key=labels[-1] if labels else None,
    )


def fig06_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    noc: int = 10,
    deltas: Sequence[int] = (0, 2, 4, 6, 8, 10, 12),
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 6 as a campaign: one cell per maximum contact distance r."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(
            label=f"r=2R+{d}" if d else "r=2R",
            params={"r": 2 * R + d},
        )
        for d in deltas
    )
    return CampaignSpec(
        name="fig06",
        description="Fig 6 — Effect of Maximum Contact Distance (r) on Reachability",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig06"),),
        base_params={"R": R, "noc": noc, "depth": 1},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability",),
        num_sources=num_sources,
    )


def reduce_fig06(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 6 from stored cells (matches ``legacy.run_fig06``)."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    noc = int(spec.base_params["noc"])
    return _distribution_reduce(
        spec,
        store,
        exp_id="fig06",
        title="Fig 6 — Effect of Maximum Contact Distance (r) on Reachability",
        notes=[
            "paper: reachability grows with r, with little further gain beyond "
            "r = 2R+8 (non-overlapping contacts are equivalent wherever they sit)",
            f"N={n}, R={R}, NoC={noc}, D=1",
        ],
        plot_key=spec.cases[-1].label,
    )


def fig08_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 10,
    noc: int = 10,
    depths: Sequence[int] = (1, 2, 3),
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 8 as a campaign: one full-selection cell per search depth.

    Depth-D reachability follows contacts of contacts, so every cell
    bootstraps *all* nodes (``full_selection``) and ``num_sources`` only
    bounds the measured sample — exactly the legacy oracle's regime.
    """
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=f"D={d}", params={"depth": int(d)}) for d in depths
    )
    return CampaignSpec(
        name="fig08",
        description="Fig 8 — Effect of Depth of Search (D) on Reachability",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig08"),),
        base_params={"R": R, "r": r, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability",),
        num_sources=num_sources,
        full_selection=True,
    )


def reduce_fig08(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 8 from stored cells (matches ``legacy.run_fig08``)."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    noc = int(spec.base_params["noc"])
    depths = [int(c.label.rsplit("=", 1)[1]) for c in spec.cases]
    return _distribution_reduce(
        spec,
        store,
        exp_id="fig08",
        title="Fig 8 — Effect of Depth of Search (D) on Reachability",
        notes=[
            "paper: reachability rises sharply with D — contacts form a tree, "
            "making CARD scalable",
            f"N={n}, R={R}, r={r}, NoC={noc}",
        ],
        plot_key=f"D={max(depths)}",
    )


# ----------------------------------------------------------------------
# Fig 9 — density-matched sizes with per-size tuned parameters
# ----------------------------------------------------------------------
def _sized_topology(
    cfg, scale: float, salt_prefix: str
) -> Tuple[int, TopologySpec]:
    """A Fig 9/15 configuration's topology, density-matched when scaled."""
    n = scaled(cfg.num_nodes, scale, minimum=60)
    side = (
        cfg.area[0] * float(np.sqrt(n / cfg.num_nodes))
        if n != cfg.num_nodes
        else cfg.area[0]
    )
    return n, TopologySpec(
        kind="explicit",
        num_nodes=n,
        area=(side, side),
        tx_range=50.0,
        salt=(salt_prefix, cfg.num_nodes),
    )


def fig09_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 9 as a campaign: one cell per density-matched network size."""
    cases = []
    for cfg in FIG9_CONFIGS:
        _, topo = _sized_topology(cfg, scale, "fig09")
        cases.append(
            CaseSpec(
                label=f"N={cfg.num_nodes}",
                params={"R": cfg.R, "r": cfg.r, "noc": cfg.noc, "depth": 1},
                topology=topo,
            )
        )
    return CampaignSpec(
        name="fig09",
        description="Fig 9 — Reachability for different network sizes",
        cases=tuple(cases),
        seeds=(seed,),
        metrics=("reachability",),
        num_sources=num_sources,
    )


def reduce_fig09(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 9 from stored cells (matches ``legacy.run_fig09``)."""
    return _distribution_reduce(
        spec,
        store,
        exp_id="fig09",
        title="Fig 9 — Reachability for different network sizes",
        notes=[
            "paper: with per-size (R, r, NoC) tuning, every size achieves a "
            "distribution concentrated at high reachability",
            "density held constant across sizes (area scales with N)",
            "configs: " + "; ".join(c.label for c in FIG9_CONFIGS),
        ],
        plot_key=f"N={FIG9_CONFIGS[-1].num_nodes}",
    )


# ----------------------------------------------------------------------
# Fig 7 — NoC sweep (the original engine proof, unchanged numbers)
# ----------------------------------------------------------------------
def fig07_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 10,
    noc_values: Sequence[int] = (0, 2, 4, 6, 8, 10, 12),
    num_sources: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
) -> CampaignSpec:
    """Fig 7 as a campaign: one cell per NoC value (× seed)."""
    n = scaled(500, scale, minimum=80)
    return CampaignSpec(
        name="fig07",
        description="Fig 7 — Effect of Number of Contacts (NoC) on Reachability",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig07"),),
        base_params={"R": R, "r": r, "depth": 1},
        grid={"noc": list(noc_values)},
        seeds=tuple(seeds) if seeds is not None else (seed,),
        metrics=("reachability",),
        num_sources=num_sources,
    )


def reduce_fig07(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 7 from stored cells (matches ``legacy.run_fig07``'s numbers)."""
    require_single_seed(spec)
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    noc_values = [int(v) for v in spec.grid["noc"]]
    columns = {}
    means = {}
    for cell in spec.expand():
        label = f"NoC={cell.params['noc']}"
        metrics = require_metrics(store, cell, what=label, spec_name=spec.name)
        columns[label] = np.asarray(metrics["distribution"], dtype=np.int64)
        means[label] = float(metrics["mean_reachability"])
    max_noc = max(noc_values)
    notes = [
        "paper: sharp initial rise, saturation beyond NoC≈6 — the achieved "
        "contact count is overlap-limited",
        f"N={n}, R={R}, r={r}, D=1; one campaign cell per NoC value",
    ]
    return distribution_table(
        columns,
        means,
        exp_id="fig07",
        title="Fig 7 — Effect of Number of Contacts (NoC) on Reachability",
        notes=notes,
        plot_key=f"NoC={max_noc}",
    )


# ----------------------------------------------------------------------
# Figs 10-12 — maintenance overhead over time (the time-series regime)
# ----------------------------------------------------------------------
def fig10_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    noc_values: Sequence[int] = (3, 4, 5, 7),
    duration: float = 10.0,
    R: int = 3,
    r: int = 10,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 10 as a campaign: one time-series cell per NoC value."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(
            label=f"NoC={k}",
            params={"noc": int(k)},
            topology=TopologySpec(
                kind="standard", num_nodes=n, salt=("fig10", int(k))
            ),
        )
        for k in noc_values
    )
    return CampaignSpec(
        name="fig10",
        description="Fig 10 — Effect of Number of Contacts (NoC) on Overhead",
        base_params={"R": R, "r": r},
        cases=cases,
        seeds=(seed,),
        metrics=("series",),
        num_sources=num_sources,
        duration=duration,
        mobility=_default_mobility(),
    )


def reduce_fig10(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 10 from stored cells (matches ``legacy.run_fig10``)."""
    n = spec.cases[0].topology.num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    by_label = labeled_metrics(spec, store)
    labels = [c.label for c in spec.cases]
    return series_table(
        by_label[labels[0]]["times"],
        {l: by_label[l]["overhead"] for l in labels},
        exp_id="fig10",
        title="Fig 10 — Effect of Number of Contacts (NoC) on Overhead",
        ylabel="control msgs / node / 2s window",
        notes=[
            "paper: overhead rises sharply with NoC (more contacts to validate)",
            f"N={n}, R={R}, r={r}, D=1, RWP speeds {DEFAULT_SPEED} m/s, "
            f"pause {DEFAULT_PAUSE}s",
        ],
        raw={l: by_label[l] for l in labels},
    )


def fig11_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    r_values: Sequence[int] = (8, 9, 10, 12, 15),
    duration: float = 10.0,
    R: int = 3,
    noc: int = 5,
    num_sources: Optional[int] = None,
    name: str = "fig11",
) -> CampaignSpec:
    """Figs 11/12 as a campaign: one time-series cell per contact distance.

    Fig 12 is the backtracking view of the *same* runs, so
    ``fig12_spec`` shares these cells — a shared store computes them
    once.
    """
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(
            label=f"r={rv}",
            params={"r": int(rv)},
            topology=TopologySpec(
                kind="standard", num_nodes=n, salt=("fig11", int(rv))
            ),
        )
        for rv in r_values
    )
    return CampaignSpec(
        name=name,
        description="Figs 11/12 — Effect of Maximum Contact Distance (r) on Overhead",
        base_params={"R": R, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("series",),
        num_sources=num_sources,
        duration=duration,
        mobility=_default_mobility(),
    )


def fig12_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    r_values: Sequence[int] = (8, 9, 10, 12, 15),
    duration: float = 10.0,
    R: int = 3,
    noc: int = 5,
    num_sources: Optional[int] = None,
    name: str = "fig12",
) -> CampaignSpec:
    """Fig 12 — identical cells to ``fig11_spec`` (shared by content hash)."""
    return fig11_spec(
        scale=scale, seed=seed, r_values=r_values, duration=duration,
        R=R, noc=noc, num_sources=num_sources, name=name,
    )


def _fig11_12_reduce(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    series_name: str,
    exp_id: str,
    title: str,
    ylabel: str,
    notes: List[str],
) -> ExperimentResult:
    by_label = labeled_metrics(spec, store)
    labels = [c.label for c in spec.cases]
    return series_table(
        by_label[labels[0]]["times"],
        {l: by_label[l][series_name] for l in labels},
        exp_id=exp_id,
        title=title,
        ylabel=ylabel,
        notes=notes,
        raw={l: by_label[l] for l in labels},
    )


def reduce_fig11(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 11 from stored cells (matches ``legacy.run_fig11``)."""
    n = spec.cases[0].topology.num_nodes
    R = int(spec.base_params["R"])
    noc = int(spec.base_params["noc"])
    return _fig11_12_reduce(
        spec,
        store,
        series_name="overhead",
        exp_id="fig11",
        title="Fig 11 — Effect of Maximum Contact Distance (r) on Total Overhead",
        ylabel="control msgs / node / 2s window",
        notes=[
            "paper: total overhead *decreases* with r — wider contact band "
            "slashes re-selection backtracking (see Fig 12)",
            f"N={n}, R={R}, NoC={noc}, D=1",
        ],
    )


def reduce_fig12(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 12 from stored cells (matches ``legacy.run_fig12``)."""
    n = spec.cases[0].topology.num_nodes
    R = int(spec.base_params["R"])
    noc = int(spec.base_params["noc"])
    return _fig11_12_reduce(
        spec,
        store,
        series_name="backtracking",
        exp_id="fig12",
        title="Fig 12 — Effect of Maximum Contact Distance (r) on Backtracking",
        ylabel="backtracking msgs / node / 2s window",
        notes=[
            "paper: backtracking overhead drops sharply as r grows — the "
            "driver behind Fig 11's total-overhead decrease",
            f"N={n}, R={R}, NoC={noc}, D=1",
        ],
    )


def fig13_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    duration: float = 20.0,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 13 as a campaign: one long time-series stability cell."""
    n = scaled(250, scale, minimum=60)
    R, r = fig13_hop_params(n)
    return CampaignSpec(
        name="fig13",
        description="Fig 13 — Variation of overhead with time",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig13"),),
        base_params={"R": R, "r": r, "noc": 6},
        cases=(CaseSpec(label="fig13"),),
        seeds=(seed,),
        metrics=("series", "contacts"),
        num_sources=num_sources,
        duration=duration,
        mobility=MobilitySpec(
            model="rwp",
            min_speed=FIG13_SPEED[0],
            max_speed=FIG13_SPEED[1],
            pause=DEFAULT_PAUSE,
        ),
    )


def reduce_fig13(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 13 from stored cells (matches ``legacy.run_fig13``)."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    metrics = labeled_metrics(spec, store)["fig13"]
    return fig13_table(
        metrics["times"],
        metrics["maintenance"],
        metrics["total_contacts"],
        metrics["lost_per_bin"],
        n=n,
        R=R,
        r=r,
        raw={"series": metrics},
    )


# ----------------------------------------------------------------------
# Fig 14 — reachability vs overhead trade-off
# ----------------------------------------------------------------------
def fig14_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 10,
    max_noc: int = 10,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 14 as a campaign: one cell per NoC, with trade-off extras."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=f"NoC={k}", params={"noc": k})
        for k in range(0, max_noc + 1)
    )
    return CampaignSpec(
        name="fig14",
        description="Fig 14 — Trade-off between reachability and contact overhead",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="fig14"),),
        base_params={"R": R, "r": r, "depth": 1},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability", "overhead", "tradeoff"),
        num_sources=num_sources,
    )


def reduce_fig14(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    validation_rounds: int = 5,
) -> ExperimentResult:
    """Fig 14 from stored cells (matches ``legacy.run_fig14``).

    The maintenance weight (``validation_rounds`` cycles over each
    source's stored routes) is applied at reduce time from the stored
    per-source route hops, so one store serves any rounds setting.
    """
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    by_label = labeled_metrics(spec, store)
    noc_values = sorted(_case_noc(c.label) for c in spec.cases)
    reach: List[float] = []
    overhead: List[float] = []
    frac50: List[float] = []
    for k in noc_values:
        m = by_label[f"NoC={k}"]
        fwd = float(m["selection_msgs_per_source"])
        back = float(m["backtrack_msgs_per_source"])
        maint = [validation_rounds * int(h) for h in m["route_hops"]]
        overhead.append(fwd + back + float(np.mean(maint) if maint else 0.0))
        reach.append(float(m["mean_reachability"]))
        frac50.append(float(m["frac_ge50"]))
    return tradeoff_table(
        noc_values,
        reach,
        overhead,
        frac50,
        n=n,
        R=R,
        r=r,
        validation_rounds=validation_rounds,
        raw={"noc": noc_values, "reach": reach, "overhead": overhead},
    )


# ----------------------------------------------------------------------
# Fig 15 — CARD vs flooding vs bordercasting
# ----------------------------------------------------------------------
def fig15_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    num_queries: int = 50,
    depth: int = 3,
    num_sizes: Optional[Sequence[int]] = None,
) -> CampaignSpec:
    """Fig 15 as a campaign: one comparison cell per network size."""
    sizes = (
        list(num_sizes)
        if num_sizes is not None
        else [c.num_nodes for c in FIG15_CONFIGS]
    )
    cases = []
    for cfg in FIG15_CONFIGS:
        if cfg.num_nodes not in sizes:
            continue
        _, topo = _sized_topology(cfg, scale, "fig15")
        cases.append(
            CaseSpec(
                label=f"N={cfg.num_nodes}",
                params={"R": cfg.R, "r": cfg.r, "noc": cfg.noc, "depth": depth},
                topology=topo,
            )
        )
    return CampaignSpec(
        name="fig15",
        description="Fig 15 — Comparison of CARD with flooding and bordercasting",
        cases=tuple(cases),
        seeds=(seed,),
        metrics=("comparison",),
        workload={"num_queries": num_queries},
    )


def reduce_fig15(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Fig 15 from stored cells (matches ``legacy.run_fig15``)."""
    num_queries = int(spec.workload["num_queries"])
    by_label = labeled_metrics(spec, store)
    rows: List[List[object]] = []
    raw: Dict[str, object] = {}
    series: Dict[str, List[float]] = {
        "Flooding": [], "Bordercasting": [], "CARD": [],
    }
    prefix_of = {"Flooding": "flood", "Bordercasting": "border", "CARD": "card"}
    for case in spec.cases:
        m = by_label[case.label]
        rows.append(
            [
                case.topology.num_nodes,
                int(m["flood_msgs"]),
                int(m["border_msgs"]),
                int(m["card_msgs"]),
                int(m["flood_events"]),
                int(m["border_events"]),
                int(m["card_events"]),
                int(m["card_prepare_msgs"]),
                round(100 * float(m["flood_success_rate"]), 1),
                round(100 * float(m["border_success_rate"]), 1),
                round(100 * float(m["card_success_rate"]), 1),
            ]
        )
        for name in series:
            series[name].append(float(m[f"{prefix_of[name]}_events"]))
        raw[case.label] = m
    return fig15_table(rows, series, num_queries=num_queries, raw=raw)


# ----------------------------------------------------------------------
# Table 1 — scenario connectivity statistics
# ----------------------------------------------------------------------
def table1_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
) -> CampaignSpec:
    """Table 1 as a campaign: one topology-statistics cell per scenario."""
    topologies = []
    for sc in TABLE1_SCENARIOS:
        n = scaled(sc.num_nodes, scale, minimum=30)
        topologies.append(
            TopologySpec(
                kind="scenario",
                scenario=sc.index,
                num_nodes=None if n == sc.num_nodes else n,
            )
        )
    return CampaignSpec(
        name="table1",
        description="Table 1 — Scenario connectivity statistics",
        topologies=tuple(topologies),
        seeds=tuple(seeds) if seeds is not None else (seed,),
        metrics=("topology",),
    )


def reduce_table1(
    spec: CampaignSpec, store: ResultStore, *, scale: float = 1.0
) -> ExperimentResult:
    """Table 1 from stored cells (matches ``legacy.run_table1``'s rows)."""
    require_single_seed(spec)
    rows = []
    raw = {}
    by_scenario = {c.topology.scenario: c for c in spec.expand()}
    for sc in TABLE1_SCENARIOS:
        cell = by_scenario[sc.index]
        metrics = require_metrics(
            store, cell, what=f"scenario {sc.index}", spec_name=spec.name
        )
        rows.append(
            scenario_row(
                sc,
                int(metrics["num_nodes"]),
                num_links=int(metrics["num_links"]),
                mean_degree=float(metrics["mean_degree"]),
                diameter=int(metrics["diameter"]),
                mean_hops=float(metrics["mean_hops"]),
                giant_size=int(metrics["giant_size"]),
            )
        )
        raw[f"scenario{sc.index}"] = metrics
    return ExperimentResult(
        exp_id="table1",
        title="Table 1 — Scenario connectivity statistics (paper vs measured)",
        headers=TABLE1_HEADERS,
        rows=rows,
        notes=table1_notes(scale),
        raw=raw,
    )


# ----------------------------------------------------------------------
# ablations + extensions
# ----------------------------------------------------------------------
def ablation_pm_eq_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 20,
    noc: int = 5,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """PM eq.(1)/eq.(2)/EM admission variants as campaign cells."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=label, params=dict(overrides))
        for label, overrides in PM_EQ_VARIANTS
    )
    return CampaignSpec(
        name="ablation_pm_eq",
        description="Ablation — PM admission equation (1) vs (2) vs EM",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="abl_pm"),),
        base_params={"R": R, "r": r, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability", "overhead", "overlap"),
        num_sources=num_sources,
    )


def reduce_ablation_pm_eq(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """PM-equation ablation from stored cells."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    noc = int(spec.base_params["noc"])
    by_label = labeled_metrics(spec, store)
    rows = []
    raw = {}
    for label, _ in PM_EQ_VARIANTS:
        m = by_label[label]
        rows.append(
            pm_eq_row(
                label,
                float(m["overlap_fraction"]),
                float(m["mean_reachability"]),
                float(m["mean_contacts"]),
                float(m["selection_msgs_per_source"]),
                float(m["backtrack_msgs_per_source"]),
            )
        )
        raw[label] = m
    return pm_eq_table(rows, n=n, R=R, r=r, noc=noc, raw=raw)


def ablation_overlap_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 12,
    noc: int = 6,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """EM overlap-check ablation as campaign cells."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=label, params={"method": "EM", **flags})
        for label, flags in OVERLAP_VARIANTS
    )
    return CampaignSpec(
        name="ablation_overlap",
        description="Ablation — contribution of the EM overlap checks",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="abl_ovl"),),
        base_params={"R": R, "r": r, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability", "overhead", "overlap"),
        num_sources=num_sources,
    )


def reduce_ablation_overlap(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Overlap-check ablation from stored cells."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    noc = int(spec.base_params["noc"])
    by_label = labeled_metrics(spec, store)
    rows = []
    for label, _ in OVERLAP_VARIANTS:
        m = by_label[label]
        rows.append(
            overlap_row(
                label,
                float(m["overlap_fraction"]),
                float(m["mean_reachability"]),
                float(m["mean_contacts"]),
                float(m["backtrack_msgs_per_source"]),
            )
        )
    return overlap_table(rows, n=n, R=R, r=r, noc=noc)


def ablation_recovery_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    duration: float = 10.0,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Local-recovery on/off ablation as time-series campaign cells."""
    n = scaled(250, scale, minimum=60)
    cases = (
        CaseSpec(label="recovery ON", params={"local_recovery": True}),
        CaseSpec(label="recovery OFF", params={"local_recovery": False}),
    )
    return CampaignSpec(
        name="ablation_recovery",
        description="Ablation — local recovery during contact validation",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="abl_rec"),),
        base_params={"R": 3, "r": 12, "noc": 5},
        cases=cases,
        seeds=(seed,),
        metrics=("series", "contacts"),
        num_sources=num_sources,
        duration=duration,
        mobility=MobilitySpec(
            model="rwp", min_speed=1.0, max_speed=6.0, pause=1.0
        ),
    )


def reduce_ablation_recovery(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Recovery ablation from stored cells."""
    n = spec.topologies[0].num_nodes
    duration = float(spec.duration)
    by_label = labeled_metrics(spec, store)
    rows = []
    for label in ("recovery ON", "recovery OFF"):
        m = by_label[label]
        rows.append(
            recovery_row(
                label,
                m["lost_per_bin"],
                m["maintenance"],
                m["selection"],
                m["backtracking"],
                m["overhead"],
                m["total_contacts"],
            )
        )
    return recovery_table(rows, n=n, duration=duration)


#: labels of the query-scheme ablation, in legacy row order
_QUERY_CASES = (
    ("CARD DSQ (dedup)", "dsq"),
    ("CARD DSQ (no dedup)", "dsq_nodedup"),
    ("Expanding ring", "ring"),
)


def ablation_query_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    num_queries: int = 40,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Query-scheme ablation: one cell per discovery scheme."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=label, workload={"scheme": scheme})
        for label, scheme in _QUERY_CASES
    )
    return CampaignSpec(
        name="ablation_query",
        description="Ablation — DSQ escalation vs expanding-ring search",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="abl_query"),),
        base_params={"R": 3, "r": 12, "noc": 6, "depth": 3},
        cases=cases,
        seeds=(seed,),
        metrics=("query",),
        workload={"num_queries": num_queries},
    )


def reduce_ablation_query(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Query ablation from stored cells."""
    n = spec.topologies[0].num_nodes
    num_queries = int(spec.workload["num_queries"])
    by_label = labeled_metrics(spec, store)
    rows = []
    for label, _ in _QUERY_CASES:
        m = by_label[label]
        rows.append(
            query_row(
                label,
                int(m["query_msgs"]),
                int(m["query_successes"]),
                int(m["num_queries"]),
            )
        )
    return query_table(rows, n=n, num_queries=num_queries)


def ablation_mobility_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    duration: float = 10.0,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Mobility-model ablation: one time-series cell per model."""
    n = scaled(250, scale, minimum=60)
    cases = tuple(
        CaseSpec(label=label, mobility=MobilitySpec(**cfg))
        for label, cfg in ABLATION_MOBILITY_CONFIGS.items()
    )
    return CampaignSpec(
        name="ablation_mobility",
        description="Ablation — contact stability across mobility models",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="abl_mob"),),
        base_params={"R": 3, "r": 12, "noc": 5},
        cases=cases,
        seeds=(seed,),
        metrics=("series", "contacts"),
        num_sources=num_sources,
        duration=duration,
    )


def reduce_ablation_mobility(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Mobility ablation from stored cells."""
    n = spec.topologies[0].num_nodes
    duration = float(spec.duration)
    by_label = labeled_metrics(spec, store)
    rows = []
    for label in ABLATION_MOBILITY_CONFIGS:
        m = by_label[label]
        rows.append(
            mobility_row(
                label,
                m["lost_per_bin"],
                m["maintenance"],
                m["overhead"],
                m["total_contacts"],
            )
        )
    return mobility_table(rows, n=n, duration=duration)


def ablation_failures_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 12,
    noc: int = 5,
    fail_fraction: float = 0.15,
    num_queries: int = 40,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Node-crash robustness as a single three-phase campaign cell."""
    n = scaled(500, scale, minimum=80)
    return CampaignSpec(
        name="ablation_failures",
        description="Ablation — robustness to node crashes",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="failures"),),
        base_params={"R": R, "r": r, "noc": noc, "depth": 3},
        cases=(CaseSpec(label="failures"),),
        seeds=(seed,),
        metrics=("failures",),
        workload={"num_queries": num_queries, "fail_fraction": fail_fraction},
    )


def reduce_ablation_failures(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Failures ablation from stored cells."""
    fail_fraction = float(spec.workload.get("fail_fraction", 0.15))
    m = labeled_metrics(spec, store)["failures"]
    rows = [
        ["before crash", int(m["ok_before"]), int(m["msgs_before"]), 0,
         int(m["contacts_before"])],
        ["after crash", int(m["ok_crash"]), int(m["msgs_crash"]), 0,
         int(m["contacts_crash"])],
        ["after repair", int(m["ok_repaired"]), int(m["msgs_repaired"]),
         int(m["repair_msgs"]), int(m["contacts_repaired"])],
    ]
    return failures_table(
        rows,
        n=int(m["num_nodes"]),
        fail_fraction=fail_fraction,
        num_failed=int(m["num_failed"]),
        lost=int(m["contacts_lost"]),
        raw={
            "before": (int(m["ok_before"]), int(m["msgs_before"])),
            "crash": (int(m["ok_crash"]), int(m["msgs_crash"])),
            "repaired": (int(m["ok_repaired"]), int(m["msgs_repaired"])),
        },
    )


def ablation_edge_policy_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 12,
    noc: int = 6,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Edge-launch-policy ablation: one cell per policy."""
    from repro.core.edge_policy import EdgePolicy

    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=policy.value, params={"edge_policy": policy.value})
        for policy in EdgePolicy
    )
    return CampaignSpec(
        name="ablation_edge_policy",
        description="Ablation — CSQ edge-launch heuristics",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="edgepol"),),
        base_params={"R": R, "r": r, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("reachability", "overhead"),
        num_sources=num_sources,
    )


def reduce_ablation_edge_policy(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Edge-policy ablation from stored cells."""
    from repro.core.edge_policy import EdgePolicy

    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    noc = int(spec.base_params["noc"])
    by_label = labeled_metrics(spec, store)
    rows = []
    raw = {}
    for policy in EdgePolicy:
        m = by_label[policy.value]
        rows.append(
            edge_policy_row(
                policy.value,
                float(m["mean_reachability"]),
                float(m["mean_contacts"]),
                float(m["selection_msgs_per_source"]),
                float(m["backtrack_msgs_per_source"]),
            )
        )
        raw[policy.value] = m
    return edge_policy_table(rows, n=n, R=R, r=r, noc=noc, raw=raw)


def smallworld_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    R: int = 3,
    r: int = 12,
    noc_values: Sequence[int] = (0, 1, 2, 4, 6),
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Small-world statistics vs NoC: one cell per contact budget."""
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(label=f"NoC={int(k)}", params={"noc": int(k)})
        for k in noc_values
    )
    return CampaignSpec(
        name="smallworld",
        description="Extension — small-world statistics of the contact structure",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="smallworld"),),
        base_params={"R": R, "r": r},
        cases=cases,
        seeds=(seed,),
        metrics=("smallworld",),
        num_sources=num_sources,
    )


def reduce_smallworld(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Small-world extension from stored cells."""
    n = spec.topologies[0].num_nodes
    R = int(spec.base_params["R"])
    r = int(spec.base_params["r"])
    by_label = labeled_metrics(spec, store)
    noc_values = [_case_noc(c.label) for c in spec.cases]
    rows = []
    raw = {}
    for k in noc_values:
        m = by_label[f"NoC={int(k)}"]
        rows.append(
            smallworld_row(
                int(k),
                float(m["clustering"]),
                float(m["path_length"]),
                float(m["augmented_path_length"]),
                float(m["shortcut_gain"]),
                float(m["mean_separation"]),
                float(m["coverage"]),
            )
        )
        raw[int(k)] = m
    return smallworld_table(rows, n=n, R=R, r=r, raw=raw)


# ----------------------------------------------------------------------
# mobility_rate — overhead vs mobility rate (campaign-native; no oracle)
# ----------------------------------------------------------------------
#: RWP max-speed sweep (m/s) for the mobility-rate artifact: pedestrian
#: through vehicular, min speed fixed so only the rate varies.
MOBILITY_RATE_SPEEDS = (1.0, 3.0, 6.0, 10.0)


def mobility_rate_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    duration: float = 10.0,
    max_speeds: Sequence[float] = MOBILITY_RATE_SPEEDS,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Overhead vs mobility rate: one time-series cell per RWP speed band.

    Sweeps :class:`MobilitySpec` max speed as labeled cases over the
    ``churn`` metric family (``link_churn`` + ``substrate_stats`` are
    stored per cell), alongside ``series``/``contacts`` for the overhead
    and contact-loss columns.  This artifact is campaign-native: it has
    no legacy oracle and exists only through the artifact API.
    """
    n = scaled(250, scale, minimum=60)
    cases = tuple(
        CaseSpec(
            label=f"v<={float(v):g}",
            mobility=MobilitySpec(
                model="rwp", min_speed=0.5, max_speed=float(v), pause=2.0
            ),
        )
        for v in max_speeds
    )
    return CampaignSpec(
        name="mobility_rate",
        description="Extension — overhead vs mobility rate (RWP speed sweep)",
        topologies=(TopologySpec(kind="standard", num_nodes=n, salt="mobrate"),),
        base_params={"R": 3, "r": 12, "noc": 5},
        cases=cases,
        seeds=(seed,),
        metrics=("series", "contacts", "churn"),
        num_sources=num_sources,
        duration=duration,
    )


def reduce_mobility_rate(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Overhead-vs-mobility-rate table from stored cells."""
    n = spec.topologies[0].num_nodes
    duration = float(spec.duration)
    by_label = labeled_metrics(spec, store)
    rows: List[List[object]] = []
    raw: Dict[str, object] = {}
    churn_by: Dict[str, float] = {}
    ovh_by: Dict[str, float] = {}
    for case in spec.cases:
        m = by_label[case.label]
        stats = m["substrate_stats"]
        churn_by[case.label] = float(m["mean_link_churn"])
        ovh_by[case.label] = float(m["mean_overhead"])
        rows.append(
            [
                case.label,
                round(float(m["mean_link_churn"]), 2),
                round(float(m["mean_overhead"]), 2),
                round(float(m["mean_maintenance"]), 2),
                int(m["total_lost"]),
                int(stats["incremental_updates"]),
                int(stats["full_rebuilds"]),
            ]
        )
        raw[case.label] = m
    return mobility_rate_table(
        rows, churn_by, ovh_by, n=n, duration=duration, raw=raw
    )


# ----------------------------------------------------------------------
# Extension — discovery latency under the event-driven regime
# ----------------------------------------------------------------------
def fig_des_latency_spec(
    *,
    scale: float = 1.0,
    seed: int = 0,
    latencies: Sequence[float] = (0.002, 0.01, 0.05),
    loss: float = 0.01,
    duration: float = 10.0,
    num_queries: int = 30,
    R: int = 3,
    r: int = 10,
    noc: int = 5,
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Discovery latency vs link latency: one ``des`` cell per link config.

    Sweeps the per-link latency as labeled cases of the event-driven
    regime under the default RWP mobility — each cell runs the
    message-level DES (:class:`~repro.core.des_runner.DesRunner`), so
    query replies race topology churn against the stale contact tables.
    This artifact is campaign-native: it has no legacy oracle and exists
    only through the artifact API.
    """
    n = scaled(500, scale, minimum=80)
    cases = tuple(
        CaseSpec(
            label=f"lat={1000.0 * float(v):g}ms",
            des=DesSpec(
                latency=float(v),
                loss=float(loss),
                duration=float(duration),
                num_queries=int(num_queries),
            ),
            topology=TopologySpec(
                kind="standard", num_nodes=n, salt=("fig_des", f"{float(v):g}")
            ),
        )
        for v in latencies
    )
    return CampaignSpec(
        name="fig_des_latency",
        description=(
            "Extension — discovery latency under the event-driven regime"
        ),
        base_params={"R": R, "r": r, "noc": noc},
        cases=cases,
        seeds=(seed,),
        metrics=("des",),
        num_sources=num_sources,
        mobility=_default_mobility(),
    )


def reduce_fig_des_latency(
    spec: CampaignSpec, store: ResultStore
) -> ExperimentResult:
    """Event-driven latency table from stored cells."""
    n = spec.cases[0].topology.num_nodes
    by_label = labeled_metrics(spec, store)
    labels = [c.label for c in spec.cases]
    des = spec.cases[0].des
    return des_latency_table(
        labels,
        {l: by_label[l] for l in labels},
        n=n,
        notes=[
            f"{des.num_queries} queries per cell over {des.duration:g}s, "
            f"loss={des.loss:g}, query timeout {des.query_timeout:g}s "
            f"({des.retries} retries); RWP speeds {DEFAULT_SPEED} m/s, "
            f"pause {DEFAULT_PAUSE}s",
        ],
        raw={l: by_label[l] for l in labels},
    )


# ----------------------------------------------------------------------
# multi-seed CI variants of the headline figures (campaign-native)
# ----------------------------------------------------------------------
#: default seed tuple of the first-class CI artifacts
DEFAULT_CI_SEEDS = (0, 1, 2)


def fig07_ci_spec(
    *,
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_CI_SEEDS,
    R: int = 3,
    r: int = 10,
    noc_values: Sequence[int] = (0, 2, 4, 6, 8, 10, 12),
    num_sources: Optional[int] = None,
) -> CampaignSpec:
    """Fig 7's sweep × ``seeds`` — the registered mean ± 95 % CI variant.

    Cells keep the exact content hashes of single-seed ``fig07`` runs
    (the campaign name never enters the hash), so one shared store warms
    both artifacts.
    """
    import dataclasses

    spec = fig07_spec(
        scale=scale, R=R, r=r, noc_values=noc_values,
        num_sources=num_sources, seeds=tuple(seeds),
    )
    return dataclasses.replace(
        spec,
        name="fig07_ci",
        description="Fig 7 — reachability vs NoC, mean ± 95% CI over seeds",
    )


def reduce_fig07_ci(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Group the stored seed × NoC grid to mean ± CI rows and a CI plot."""
    from repro.campaign.aggregate import aggregate_table
    from repro.util.ascii_plot import ascii_series

    n_seeds = len(set(spec.seeds))
    result = aggregate_table(
        spec,
        store,
        by=["noc"],
        values=["mean_reachability", "mean_contacts"],
        title=(
            "Fig 7 (CI) — Reachability vs Number of Contacts, "
            f"mean ± 95% CI over {n_seeds} seeds"
        ),
    )
    result.exp_id = "fig07_ci"
    noc = [row[0] for row in result.rows]
    mean = [float(row[1]) for row in result.rows]
    half = [float(row[2]) for row in result.rows]
    result.plots.append(
        ascii_series(
            {
                "mean": mean,
                "+95%": [m + h for m, h in zip(mean, half)],
                "-95%": [max(0.0, m - h) for m, h in zip(mean, half)],
            },
            noc,
            title="mean reachability (%) vs NoC with 95% CI envelope",
        )
    )
    result.notes.append(
        f"seeds {tuple(spec.seeds)}; one cell per (NoC, seed), CI over seeds"
    )
    return result


def table1_ci_spec(
    *,
    scale: float = 1.0,
    seeds: Sequence[int] = DEFAULT_CI_SEEDS,
) -> CampaignSpec:
    """Table 1 × ``seeds`` — connectivity statistics with seed spread."""
    import dataclasses

    spec = table1_spec(scale=scale, seeds=tuple(seeds))
    return dataclasses.replace(
        spec,
        name="table1_ci",
        description="Table 1 — scenario statistics, mean ± 95% CI over seeds",
    )


def reduce_table1_ci(spec: CampaignSpec, store: ResultStore) -> ExperimentResult:
    """Per-scenario mean ± CI over the drawn topologies, plus a CI plot."""
    from repro.campaign.aggregate import aggregate_table
    from repro.util.ascii_plot import ascii_histogram

    n_seeds = len(set(spec.seeds))
    result = aggregate_table(
        spec,
        store,
        by=["topology"],
        values=["num_links", "mean_degree", "diameter", "mean_hops"],
        title=(
            "Table 1 (CI) — Scenario connectivity statistics, "
            f"mean ± 95% CI over {n_seeds} seeds"
        ),
    )
    result.exp_id = "table1_ci"
    labels = [str(row[0]) for row in result.rows]
    idx = result.headers.index("mean_hops")
    result.plots.append(
        ascii_histogram(
            labels,
            [float(row[idx]) for row in result.rows],
            title="mean hop count per scenario (± CI in table)",
        )
    )
    result.notes.append(
        f"seeds {tuple(spec.seeds)}; every scenario re-drawn per seed"
    )
    return result

