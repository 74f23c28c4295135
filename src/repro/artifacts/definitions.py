"""Every paper artifact, defined once.

Each table/figure of the paper (and each ablation/extension of ours) is
one :func:`~repro.artifacts.artifact.define` call: id, title, paper
section, the options it accepts with their defaults, the spec recipe and
the table layout, side by side.  Most are data over the shared pieces of
:mod:`repro.artifacts.recipes` — a :class:`Sweep` plus one of the three
family reducers; a plain function appears only where an artifact is
genuinely one of a kind (Table 1, the PM/EM join, Fig 13, Fig 14's
reduce-time maintenance weight, the crash-wave phases, the two mean ± CI
aggregates).  Variants are data on a shared recipe: Fig 12 is Fig 11's
sweep read through another series, Figs 3/4 are one sweep under three
ids, and the ``_ci`` artifacts are their base recipe over a seed tuple.

Because cells are keyed by content hash (labels, campaign names and
titles never enter it), artifacts overlap in the store: ``fig12``
re-reads ``fig11``'s cells, ``fig04`` a prefix of ``fig03``'s, and a
shared ``--store`` turns the whole evaluation into one incremental set.
Output stability is enforced by the golden fixtures under
``tests/golden/`` (``pytest -m parity``): tables, titles, notes and cell
hashes of all artifacts are pinned there.

Adding an artifact: one ``define(...)`` here (and its name in
:data:`DEFINITIONS`), one ``GOLDEN_KWARGS`` entry in
``tests/golden_matrix.py``, then ``tests/golden/regen.py <id>``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.artifacts.artifact import Artifact, define
from repro.artifacts.recipes import (
    DEFAULT_MOBILITY,
    Sweep,
    case,
    case_value,
    distribution,
    format_notes,
    mean_of,
    require_single_seed,
    series,
    sized_topology,
    standard,
    variant_rows,
)
from repro.artifacts.result import ExperimentResult
from repro.campaign.aggregate import (
    aggregate_table,
    labeled_metrics,
    require_metrics,
)
from repro.campaign.spec import (
    CampaignSpec,
    DesSpec,
    MobilitySpec,
    TopologySpec,
)
from repro.core.edge_policy import EdgePolicy
from repro.scenarios.factory import FIG9_CONFIGS, FIG15_CONFIGS, scaled
from repro.scenarios.table1 import TABLE1_SCENARIOS
from repro.util.ascii_plot import ascii_histogram, ascii_series

__all__ = ["DEFINITIONS", "DEFAULT_CI_SEEDS"]


# ----------------------------------------------------------------------
# Table 1 — scenario connectivity statistics
# ----------------------------------------------------------------------
def _table1_spec(*, name, description, scale, seed=0, seeds=None) -> CampaignSpec:
    """One topology-statistics cell per Table 1 scenario (× seed)."""
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
        name=name,
        description=description,
        topologies=tuple(topologies),
        seeds=tuple(seeds) if seeds is not None else (seed,),
        metrics=("topology",),
    )


def _table1_table(spec, store, *, exp_id, title, scale=1.0) -> ExperimentResult:
    """Scenario identity, measured statistics and the paper's, per row."""
    require_single_seed(spec)
    by_scenario = {c.topology.scenario: c for c in spec.expand()}
    rows, raw = [], {}
    for sc in TABLE1_SCENARIOS:
        m = require_metrics(
            store,
            by_scenario[sc.index],
            what=f"scenario {sc.index}",
            spec_name=spec.name,
        )
        rows.append(
            [
                sc.index,
                int(m["num_nodes"]),
                f"{sc.area[0]:g}x{sc.area[1]:g}",
                f"{sc.tx_range:g}",
                int(m["num_links"]),
                sc.paper_links,
                round(float(m["mean_degree"]), 3),
                sc.paper_degree,
                int(m["diameter"]),
                sc.paper_diameter,
                round(float(m["mean_hops"]), 3),
                sc.paper_avg_hops,
                int(m["giant_size"]),
            ]
        )
        raw[f"scenario{sc.index}"] = m
    notes = [
        "topologies regenerated from the paper's (N, area, tx) with uniform "
        "placement; per-draw statistics differ, cross-scenario scaling holds",
        "diameter/avg-hops computed over the largest connected component",
    ]
    if scale != 1.0:
        notes.append(f"scaled run: node counts multiplied by {scale:g}")
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=[
            "No.", "Nodes", "Area", "Tx", "Links", "Links(paper)", "Degree",
            "Degree(paper)", "Diam", "Diam(paper)", "AvHops", "AvHops(paper)",
            "GiantComp",
        ],
        rows=rows,
        notes=notes,
        raw=raw,
    )


TABLE1 = define(
    "table1",
    "Table 1 — Scenario connectivity statistics (paper vs measured)",
    section="§IV, Table 1",
    description="Connectivity statistics of the eight scenarios",
    recipe=_table1_spec,
    options=("seeds",),
    table=_table1_table,
    reduce_options=("scale",),
)


# ----------------------------------------------------------------------
# Figs 3 & 4 — PM vs EM: one sweep, one table, three ids
# ----------------------------------------------------------------------
_PM_EM_SWEEP = Sweep(
    name="fig03_04",
    salt="fig03",
    metrics=("reachability", "overhead"),
    options={"max_noc": 9, "num_sources": None},
    base=lambda o: {"R": 3, "r": 20, "depth": 1},
    cases=lambda o: [
        case(f"{method} NoC={k}", method=method, noc=k)
        for method in ("PM", "EM")
        for k in range(1, o.max_noc + 1)
    ],
)


def _pm_em_table(spec, store, *, exp_id, title, scale=1.0) -> ExperimentResult:
    """Join the PM and EM halves of the sweep on NoC."""
    by_label = labeled_metrics(spec, store)
    noc_values = sorted(
        {case_value(c) for c in spec.cases if c.label.startswith("PM")}
    )
    #: per method: (noc, mean reach, forward msgs, backtrack msgs) rows
    pm, em = (
        [
            (
                int(k),
                float(m["mean_reachability"]),
                float(m["selection_msgs_per_source"]),
                float(m["backtrack_msgs_per_source"]),
            )
            for k in noc_values
            for m in [by_label[f"{method} NoC={k}"]]
        ]
        for method in ("PM", "EM")
    )
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=[
            "NoC", "Reach% PM", "Reach% EM", "Backtrack/node PM",
            "Backtrack/node EM", "Fwd/node PM", "Fwd/node EM",
        ],
        rows=[
            [
                k,
                round(pm[i][1], 2),
                round(em[i][1], 2),
                round(pm[i][3], 1),
                round(em[i][3], 1),
                round(pm[i][2], 1),
                round(em[i][2], 1),
            ]
            for i, k in enumerate(noc_values)
        ],
        notes=[
            "paper: EM dominates PM in reachability; PM saturates earlier and "
            "backtracks far more",
            f"R=3, r=20, D=1, N=500 (scaled by {scale:g}), PM uses eq.(2)",
        ],
        plots=[
            ascii_series(
                {"PM": [row[col] for row in pm], "EM": [row[col] for row in em]},
                noc_values,
                title=plot_title,
            )
            for col, plot_title in (
                (1, "Fig 3 — Reachability (%) vs NoC"),
                (3, "Fig 4 — Backtracking msgs/node vs NoC"),
            )
        ],
        raw={"noc": noc_values, "pm": pm, "em": em},
    )


FIG03, FIG04, FIG03_04 = (
    define(
        id,
        "Figs 3 & 4 — PM vs EM: reachability and backtracking overhead",
        section=section,
        description=description,
        recipe=_PM_EM_SWEEP,
        table=_pm_em_table,
        reduce_options=("scale",),
        **meta,
    )
    for id, section, description, meta in (
        ("fig03", "§IV.A, Fig 3", "PM vs EM mean reachability vs NoC", {}),
        (
            "fig04",
            "§IV.A, Fig 4",
            "PM vs EM backtracking overhead vs NoC",
            {"defaults": {"max_noc": 5}},
        ),
        (
            "fig03_04",
            "§IV.A, Figs 3-4",
            "Joint PM vs EM sweep (shared selection runs)",
            {"derived": True},
        ),
    )
)


# ----------------------------------------------------------------------
# Figs 5-9 — reachability distributions over R / r / NoC / D / N
# ----------------------------------------------------------------------
_XL_SNAPSHOT = {"num_sources": 400}
_FIG05_RADII = (1, 2, 3, 4, 5, 6, 7)


def _fig05_cases(o):
    cases = [case(f"R={R}", R=R) for R in o.radii if 2 * R <= o.r]
    if not cases:
        raise ValueError(
            f"no runnable radius in {tuple(o.radii)}: every R violates r>=2R "
            f"(r={o.r})"
        )
    return cases


def _fig05_table(spec, store, *, radii=_FIG05_RADII, **bound) -> ExperimentResult:
    """The distribution table, noting the swept-but-unrunnable radii —
    the spec carries no trace of cases it refused to build."""
    skipped = [R for R in radii if 2 * R > int(spec.base_params["r"])]
    notes = [
        "paper: distribution shifts right as R grows, then collapses once "
        "2R approaches r (contact region vanishes)",
        "N={n}, r={r}, NoC={noc}, D=1",
    ]
    if skipped:
        notes.append(f"radii {skipped} violate r>=2R and are not runnable")
    return distribution(spec, store, notes=notes, **bound)


FIG05 = define(
    "fig05",
    "Fig 5 — Effect of Neighborhood Radius (R) on Reachability",
    section="§IV.A, Fig 5",
    description="Reachability distribution vs neighborhood radius",
    recipe=Sweep(
        salt="fig05",
        metrics=("reachability",),
        options={"r": 16, "noc": 10, "radii": _FIG05_RADII, "num_sources": None},
        base=lambda o: {"r": o.r, "noc": o.noc, "depth": 1},
        cases=_fig05_cases,
    ),
    table=_fig05_table,
    reduce_options=("radii",),
    xl_defaults=_XL_SNAPSHOT,
)

FIG06 = define(
    "fig06",
    "Fig 6 — Effect of Maximum Contact Distance (r) on Reachability",
    section="§IV.A, Fig 6",
    description="Reachability distribution vs contact distance",
    recipe=Sweep(
        salt="fig06",
        metrics=("reachability",),
        options={
            "R": 3, "noc": 10, "deltas": (0, 2, 4, 6, 8, 10, 12),
            "num_sources": None,
        },
        base=lambda o: {"R": o.R, "noc": o.noc, "depth": 1},
        cases=lambda o: [
            case(f"r=2R+{d}" if d else "r=2R", r=2 * o.R + d) for d in o.deltas
        ],
    ),
    table=partial(
        distribution,
        notes=(
            "paper: reachability grows with r, with little further gain beyond "
            "r = 2R+8 (non-overlapping contacts are equivalent wherever they sit)",
            "N={n}, R={R}, NoC={noc}, D=1",
        ),
    ),
    xl_defaults=_XL_SNAPSHOT,
)

#: Fig 7 sweeps NoC as a grid axis (one cell per value × seed), so the
#: multi-seed variants group on ``noc`` directly
_FIG07_SWEEP = Sweep(
    salt="fig07",
    metrics=("reachability",),
    options={
        "R": 3, "r": 10, "noc_values": (0, 2, 4, 6, 8, 10, 12),
        "num_sources": None, "seeds": None,
    },
    base=lambda o: {"R": o.R, "r": o.r, "depth": 1},
    grid=lambda o: {"noc": list(o.noc_values)},
)

FIG07 = define(
    "fig07",
    "Fig 7 — Effect of Number of Contacts (NoC) on Reachability",
    section="§IV.A, Fig 7",
    description="Reachability distribution vs number of contacts",
    recipe=_FIG07_SWEEP,
    table=partial(
        distribution,
        grid_label="NoC={noc}",
        plot="max",
        notes=(
            "paper: sharp initial rise, saturation beyond NoC≈6 — the achieved "
            "contact count is overlap-limited",
            "N={n}, R={R}, r={r}, D=1; one campaign cell per NoC value",
        ),
    ),
    xl_defaults=_XL_SNAPSHOT,
)

FIG08 = define(
    "fig08",
    "Fig 8 — Effect of Depth of Search (D) on Reachability",
    section="§IV.A, Fig 8",
    description="Reachability distribution vs depth of search",
    # depth-D reachability follows contacts of contacts, so every cell
    # bootstraps *all* nodes and num_sources only bounds the measured sample
    recipe=Sweep(
        salt="fig08",
        metrics=("reachability",),
        full_selection=True,
        options={"R": 3, "r": 10, "noc": 10, "depths": (1, 2, 3), "num_sources": None},
        base=lambda o: {"R": o.R, "r": o.r, "noc": o.noc},
        cases=lambda o: [case(f"D={d}", depth=int(d)) for d in o.depths],
    ),
    table=partial(
        distribution,
        plot="max",
        notes=(
            "paper: reachability rises sharply with D — contacts form a tree, "
            "making CARD scalable",
            "N={n}, R={R}, r={r}, NoC={noc}",
        ),
    ),
    xl_defaults=_XL_SNAPSHOT,
)

FIG09 = define(
    "fig09",
    "Fig 9 — Reachability for different network sizes",
    section="§IV.A, Fig 9",
    description="Density-matched sizes with per-size tuned (R, r, NoC)",
    recipe=Sweep(
        metrics=("reachability",),
        options={"num_sources": None},
        cases=lambda o: [
            case(
                f"N={cfg.num_nodes}",
                topology=sized_topology(cfg, o.scale, "fig09"),
                R=cfg.R, r=cfg.r, noc=cfg.noc, depth=1,
            )
            for cfg in FIG9_CONFIGS
        ],
    ),
    table=partial(
        distribution,
        notes=(
            "paper: with per-size (R, r, NoC) tuning, every size achieves a "
            "distribution concentrated at high reachability",
            "density held constant across sizes (area scales with N)",
            "configs: " + "; ".join(c.label for c in FIG9_CONFIGS),
        ),
    ),
    xl_defaults=_XL_SNAPSHOT,
)


# ----------------------------------------------------------------------
# Figs 10-13 — maintenance overhead over time (the time-series regime)
# ----------------------------------------------------------------------
_XL_SERIES = {"num_sources": 250, "duration": 6.0}

FIG10 = define(
    "fig10",
    "Fig 10 — Effect of Number of Contacts (NoC) on Overhead",
    section="§IV.B, Fig 10",
    description="Maintenance overhead over time vs NoC",
    regime="series",
    recipe=Sweep(
        metrics=("series",),
        mobility=DEFAULT_MOBILITY,
        options={
            "noc_values": (3, 4, 5, 7), "duration": 10.0, "R": 3, "r": 10,
            "num_sources": None,
        },
        base=lambda o: {"R": o.R, "r": o.r},
        cases=lambda o: [
            case(f"NoC={k}", topology=standard(o.n, ("fig10", int(k))), noc=int(k))
            for k in o.noc_values
        ],
    ),
    table=partial(
        series,
        ylabel="control msgs / node / 2s window",
        notes=(
            "paper: overhead rises sharply with NoC (more contacts to validate)",
            "N={n}, R={R}, r={r}, D=1, RWP speeds {speed} m/s, pause {pause}s",
        ),
    ),
    xl_defaults=_XL_SERIES,
)

#: Figs 11 and 12 are two views of the same runs; both also take ``name``
#: to relabel the campaign (it never enters a cell hash)
_FIG11_SWEEP = Sweep(
    metrics=("series",),
    mobility=DEFAULT_MOBILITY,
    options={
        "r_values": (8, 9, 10, 12, 15), "duration": 10.0, "R": 3, "noc": 5,
        "num_sources": None,
    },
    base=lambda o: {"R": o.R, "noc": o.noc},
    cases=lambda o: [
        case(f"r={rv}", topology=standard(o.n, ("fig11", int(rv))), r=int(rv))
        for rv in o.r_values
    ],
)

_FIG11_OPTIONS = (*_FIG11_SWEEP.options, "name")

FIG11 = define(
    "fig11",
    "Fig 11 — Effect of Maximum Contact Distance (r) on Total Overhead",
    section="§IV.B, Fig 11",
    description="Total overhead over time vs contact distance",
    regime="series",
    recipe=_FIG11_SWEEP,
    options=_FIG11_OPTIONS,
    table=partial(
        series,
        ylabel="control msgs / node / 2s window",
        notes=(
            "paper: total overhead *decreases* with r — wider contact band "
            "slashes re-selection backtracking (see Fig 12)",
            "N={n}, R={R}, NoC={noc}, D=1",
        ),
    ),
    xl_defaults=_XL_SERIES,
)

FIG12 = define(
    "fig12",
    "Fig 12 — Effect of Maximum Contact Distance (r) on Backtracking",
    section="§IV.B, Fig 12",
    description="Backtracking component of the Fig 11 runs",
    regime="series",
    recipe=_FIG11_SWEEP,
    options=_FIG11_OPTIONS,
    table=partial(
        series,
        series="backtracking",
        ylabel="backtracking msgs / node / 2s window",
        notes=(
            "paper: backtracking overhead drops sharply as r grows — the "
            "driver behind Fig 11's total-overhead decrease",
            "N={n}, R={R}, NoC={noc}, D=1",
        ),
    ),
    xl_defaults=_XL_SERIES,
)


def _fig13_hops(n: int) -> Dict[str, int]:
    """Fig 13's (R, r), shrunk with the network's hop diameter.

    The paper's R=4, r=16 assume the full N=250 diameter; scaled-down CI
    runs shrink the network's hop diameter by ~sqrt(scale), so the hop
    parameters shrink with it (otherwise the (2R, r] band falls off the
    edge of the network and no contacts can exist at all).
    """
    hop_factor = float(np.sqrt(n / 250.0))
    R = max(2, int(round(4 * hop_factor)))
    return {"R": R, "r": max(2 * R + 2, int(round(16 * hop_factor)))}


def _fig13_table(spec, store, *, exp_id, title) -> ExperimentResult:
    """One long stability cell: maintenance, held and lost contacts per bin."""
    m = labeled_metrics(spec, store)[spec.cases[0].label]
    times, maintenance, contacts = m["times"], m["maintenance"], m["total_contacts"]
    return ExperimentResult(
        exp_id=exp_id,
        title=f"{title} (N=250, NoC=6, R=4, r=16)",
        headers=["t (s)", "Maintenance/node", "Total contacts", "Lost this bin"],
        rows=[
            [t, round(maintenance[i], 2), contacts[i], m["lost_per_bin"][i]]
            for i, t in enumerate(times)
        ],
        notes=format_notes(
            (
                "paper: maintenance overhead decreases steadily over time while "
                "held contacts rise slightly — sources settle on stable contacts",
                "N={n}, R={R}, r={r}, RWP speeds {speed} m/s (min 0: the "
                "slow tail provides the stable contacts), pause {pause}s",
            ),
            spec,
        ),
        plots=[
            ascii_series(
                {
                    "maintenance/node": list(maintenance),
                    "contacts/10": [c / 10.0 for c in contacts],
                },
                list(times),
                title="Fig 13 — maintenance decays while contacts stabilise",
            )
        ],
        raw={"series": m},
    )


FIG13 = define(
    "fig13",
    "Fig 13 — Variation of overhead with time",
    section="§IV.B, Fig 13",
    description="Maintenance decay as sources settle on stable contacts",
    regime="series",
    recipe=Sweep(
        base_n=250,
        min_n=60,
        salt="fig13",
        metrics=("series", "contacts"),
        # the classic heterogeneous-speed RWP (min speed 0): the slow tail
        # of the speed distribution supplies the "stable contacts" whose
        # accumulation decays maintenance overhead — the paper's own
        # footnote credits the RWP model for exactly this effect
        mobility=MobilitySpec(model="rwp", min_speed=0.0, max_speed=10.0, pause=2.0),
        options={"duration": 20.0, "num_sources": None},
        base=lambda o: {**_fig13_hops(o.n), "noc": 6},
        cases=lambda o: [case("fig13")],
    ),
    table=_fig13_table,
    xl_defaults={"num_sources": 250, "duration": 10.0},
)


# ----------------------------------------------------------------------
# Fig 14 — reachability vs overhead trade-off
# ----------------------------------------------------------------------
def _fig14_table(spec, store, *, exp_id, title, validation_rounds=5):
    """Normalised reachability against overhead, per NoC.

    The maintenance weight (``validation_rounds`` cycles over each
    source's stored routes) is applied here, at reduce time, from the
    stored per-source route hops — one store serves any rounds setting.
    """
    by_label = labeled_metrics(spec, store)
    noc_values = sorted(case_value(c) for c in spec.cases)
    reach: List[float] = []
    overhead: List[float] = []
    frac50: List[float] = []
    for k in noc_values:
        m = by_label[f"NoC={k}"]
        maint = [validation_rounds * int(h) for h in m["route_hops"]]
        overhead.append(
            float(m["selection_msgs_per_source"])
            + float(m["backtrack_msgs_per_source"])
            + float(np.mean(maint) if maint else 0.0)
        )
        reach.append(float(m["mean_reachability"]))
        frac50.append(float(m["frac_ge50"]))
    # each curve scaled into [0, 1] by its own peak, as Fig 14 plots
    # them; a flat-zero series stays zero
    r_peak = max(reach) if reach and max(reach) > 0 else 1.0
    o_peak = max(overhead) if overhead and max(overhead) > 0 else 1.0
    reach_norm = [v / r_peak for v in reach]
    overhead_norm = [v / o_peak for v in overhead]
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=[
            "NoC", "Reach (norm)", "Overhead (norm)", "Reach %",
            "Ovh msgs/node", ">=50% frac",
        ],
        rows=[
            [
                int(k),
                round(reach_norm[i], 3),
                round(overhead_norm[i], 3),
                round(reach[i], 2),
                round(overhead[i], 1),
                round(frac50[i], 3),
            ]
            for i, k in enumerate(noc_values)
        ],
        notes=format_notes(
            (
                "paper: a desirable region exists where reachability >= 50 % at "
                "moderate overhead (reachability saturates, overhead keeps rising)",
                "N={n}, R={R}, r={r}, D=1; maintenance term = "
                "{rounds} validation cycles over stored routes",
            ),
            spec,
            rounds=validation_rounds,
        ),
        plots=[
            ascii_series(
                {"reachability": reach_norm, "overhead": overhead_norm},
                noc_values,
                title="Fig 14 — normalized reachability vs overhead",
            )
        ],
        raw={"noc": noc_values, "reach": reach, "overhead": overhead},
    )


FIG14 = define(
    "fig14",
    "Fig 14 — Trade-off between reachability and contact overhead",
    section="§IV.B, Fig 14",
    description="Normalized reachability vs overhead against NoC",
    recipe=Sweep(
        salt="fig14",
        metrics=("reachability", "overhead", "tradeoff"),
        options={"R": 3, "r": 10, "max_noc": 10, "num_sources": None},
        base=lambda o: {"R": o.R, "r": o.r, "depth": 1},
        cases=lambda o: [case(f"NoC={k}", noc=k) for k in range(0, o.max_noc + 1)],
    ),
    table=_fig14_table,
    reduce_options=("validation_rounds",),
)


# ----------------------------------------------------------------------
# Fig 15 — CARD vs flooding vs bordercasting
# ----------------------------------------------------------------------
FIG15 = define(
    "fig15",
    "Fig 15 — Comparison of CARD with flooding and bordercasting",
    section="§IV.C, Fig 15",
    description="Querying traffic and success across schemes and sizes",
    recipe=Sweep(
        metrics=("comparison",),
        workload=("num_queries",),
        options={"num_queries": 50, "depth": 3, "num_sizes": None},
        cases=lambda o: [
            case(
                f"N={cfg.num_nodes}",
                topology=sized_topology(cfg, o.scale, "fig15"),
                R=cfg.R, r=cfg.r, noc=cfg.noc, depth=o.depth,
            )
            for cfg in FIG15_CONFIGS
            if o.num_sizes is None or cfg.num_nodes in o.num_sizes
        ],
    ),
    table=partial(
        variant_rows,
        first="N",
        key=lambda c: c.topology.num_nodes,
        columns=(
            ("Flood msgs", "flood_msgs"),
            ("Border msgs", "border_msgs"),
            ("CARD msgs", "card_msgs"),
            ("Flood events", "flood_events"),
            ("Border events", "border_events"),
            ("CARD events", "card_events"),
            ("CARD overhead", "card_prepare_msgs"),
            ("Flood succ%", "flood_success_rate", 1, 100),
            ("Border succ%", "border_success_rate", 1, 100),
            ("CARD succ%", "card_success_rate", 1, 100),
        ),
        plot=lambda by_label, rows: ascii_series(
            {
                scheme: [float(m[f"{prefix}_events"]) for m in by_label.values()]
                for scheme, prefix in (
                    ("Flooding", "flood"), ("Bordercasting", "border"), ("CARD", "card"),
                )
            },
            [row[0] for row in rows],
            title="Fig 15 — querying traffic vs network size",
        ),
        notes=(
            "paper: CARD's querying traffic is far below bordercasting and "
            "flooding; CARD succeeds ~95 % at D=3, the blind schemes ~100 %",
            "workload: {num_queries} random (source, target) pairs per size; "
            "msgs = transmissions (the paper's §III.B control-message count), "
            "events = tx+rx on the broadcast medium (flood/bordercast "
            "transmissions are heard by ~node-degree radios, CARD's unicast "
            "DSQ hops by one) — the NS-2-style metric behind the paper's gap",
            "bordercasting uses QD1+QD2; zone radius equals CARD's R per size",
        ),
    ),
)


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
_REACH = ("mean reach %", "mean_reachability", 2)
_CONTACTS = ("mean contacts", "mean_contacts", 2)
_OVERLAP = ("overlap %", "overlap_fraction", 2, 100)
_FORWARD = ("fwd/node", "selection_msgs_per_source", 1)
_BACKTRACK = ("backtrack/node", "backtrack_msgs_per_source", 1)
_SELECTION_OPTIONS = {"R": 3, "r": 12, "noc": 6, "num_sources": None}


def _selection_base(o):
    return {"R": o.R, "r": o.r, "noc": o.noc}


ABLATION_PM_EQ = define(
    "ablation_pm_eq",
    "Ablation — PM admission equation (1) vs (2) vs EM",
    section="extension (§III.B ablation)",
    description="Overlap/reachability cost of the PM admission rules",
    recipe=Sweep(
        salt="abl_pm",
        metrics=("reachability", "overhead", "overlap"),
        options={**_SELECTION_OPTIONS, "r": 20, "noc": 5},
        base=_selection_base,
        cases=lambda o: [
            case("PM eq.1", method="PM", pm_equation=1),
            case("PM eq.2", method="PM", pm_equation=2),
            case("EM", method="EM"),
        ],
    ),
    table=partial(
        variant_rows,
        first="variant",
        columns=(_OVERLAP, _REACH, _CONTACTS, _FORWARD, _BACKTRACK),
        notes=(
            "eq.(1) admits inside (R, 2R] → overlapping contacts (Fig 1's "
            "pathology); eq.(2) shrinks but cannot eliminate overlap (walk "
            "distance != true distance); EM eliminates it",
            "N={n}, R={R}, r={r}, NoC={noc}",
        ),
    ),
)

ABLATION_OVERLAP = define(
    "ablation_overlap",
    "Ablation — contribution of the EM overlap checks",
    section="extension (§III.B ablation)",
    description="EM Contact_List/Edge_List checks individually disabled",
    recipe=Sweep(
        salt="abl_ovl",
        metrics=("reachability", "overhead", "overlap"),
        options=_SELECTION_OPTIONS,
        base=_selection_base,
        cases=lambda o: [
            case(
                label,
                method="EM",
                check_contact_overlap=contact_check,
                check_edge_overlap=edge_check,
            )
            for label, contact_check, edge_check in (
                ("full EM", True, True),
                ("no edge check", True, False),
                ("no contact check", False, True),
                ("source check only", False, False),
            )
        ],
    ),
    table=partial(
        variant_rows,
        first="variant",
        raw_key=None,
        columns=(_OVERLAP, _REACH, _CONTACTS, _BACKTRACK),
        notes=(
            "dropping the edge check reintroduces source-contact overlap; "
            "dropping the contact check lets contacts crowd each other — "
            "more contacts admitted, less reachability per contact",
            "N={n}, R={R}, r={r}, NoC={noc}",
        ),
    ),
)

_LOST = ("contacts lost", lambda m: sum(m["lost_per_bin"]))
_HELD_AT_END = (
    "contacts at end",
    lambda m: m["total_contacts"][-1] if m["total_contacts"] else 0,
)


def _mobile_sweep(**fields) -> Sweep:
    """The N=250 mobility sweeps: fixed (R, r, NoC), series + contact metrics."""
    fields.setdefault("metrics", ("series", "contacts"))
    fields.setdefault("options", {"duration": 10.0, "num_sources": None})
    return Sweep(
        base_n=250, min_n=60, base=lambda o: {"R": 3, "r": 12, "noc": 5}, **fields
    )


ABLATION_RECOVERY = define(
    "ablation_recovery",
    "Ablation — local recovery during contact validation",
    section="extension (§III.C.3 ablation)",
    description="Local recovery on/off under RWP mobility",
    regime="series",
    recipe=_mobile_sweep(
        salt="abl_rec",
        mobility=MobilitySpec(model="rwp", min_speed=1.0, max_speed=6.0, pause=1.0),
        cases=lambda o: [
            case("recovery ON", local_recovery=True),
            case("recovery OFF", local_recovery=False),
        ],
    ),
    table=partial(
        variant_rows,
        first="variant",
        raw_key=None,
        columns=(
            _LOST,
            ("maint/node/bin", mean_of("maintenance"), 2),
            ("reselect/node/bin", mean_of("selection", "backtracking"), 2),
            ("total ovh/node/bin", mean_of("overhead"), 2),
            _HELD_AT_END,
        ),
        notes=(
            "without local recovery every broken hop kills the contact, "
            "forcing expensive re-selection — §III.C.3's motivation",
            "N={n}, R=3, r=12, NoC=5, {duration:g}s RWP",
        ),
    ),
)

ABLATION_QUERY = define(
    "ablation_query",
    "Ablation — DSQ escalation vs expanding-ring search",
    section="extension (§III.C.4 ablation)",
    description="Directed DSQ vs TTL-escalated flooding (+ dedup)",
    recipe=Sweep(
        salt="abl_query",
        metrics=("query",),
        workload=("num_queries",),
        options={"num_queries": 40, "num_sources": None},
        base=lambda o: {"R": 3, "r": 12, "noc": 6, "depth": 3},
        cases=lambda o: [
            case("CARD DSQ (dedup)", workload={"scheme": "dsq"}),
            case("CARD DSQ (no dedup)", workload={"scheme": "dsq_nodedup"}),
            case("Expanding ring", workload={"scheme": "ring"}),
        ],
    ),
    table=partial(
        variant_rows,
        first="scheme",
        raw_key=None,
        columns=(
            ("total msgs", "query_msgs"),
            ("msgs/query", lambda m: m["query_msgs"] / m["num_queries"], 1),
            (
                "success %",
                lambda m: 100 * m["query_successes"] / m["num_queries"],
                1,
            ),
        ),
        notes=(
            "§III.C.4's claim: depth escalation through contacts beats "
            "TTL-escalated flooding because queries are directed, not flooded",
            "N={n}, R=3, r=12, NoC=6, D<=3, {num_queries} queries",
        ),
    ),
    xl_defaults={"num_queries": 60, "num_sources": 400},
)

ABLATION_MOBILITY = define(
    "ablation_mobility",
    "Ablation — contact stability across mobility models",
    section="extension (§IV.B footnote)",
    description="RWP vs random-walk vs Gauss-Markov contact stability",
    regime="series",
    recipe=_mobile_sweep(
        salt="abl_mob",
        cases=lambda o: [
            case("RWP", mobility=DEFAULT_MOBILITY),
            case(
                "RandomWalk",
                mobility=MobilitySpec(
                    model="walk", min_speed=0.5, max_speed=5.0, mean_epoch=5.0
                ),
            ),
            case(
                "GaussMarkov",
                mobility=MobilitySpec(
                    model="gauss_markov", alpha=0.85, mean_speed=2.5, sigma=1.0
                ),
            ),
        ],
    ),
    table=partial(
        variant_rows,
        first="model",
        raw_key=None,
        columns=(
            _LOST,
            ("maint/node/bin", mean_of("maintenance"), 2),
            ("ovh/node/bin", mean_of("overhead"), 2),
            _HELD_AT_END,
        ),
        notes=(
            "the paper's §IV.B footnote conjectures mobility-model "
            "sensitivity; models with higher relative velocities (random "
            "walk) lose more contacts than momentum-dominated ones",
            "N={n}, R=3, r=12, NoC=5, {duration:g}s",
        ),
    ),
)


def _failures_table(spec, store, *, exp_id, title) -> ExperimentResult:
    """One three-phase cell: before the crash wave, after it, after repair."""
    m = labeled_metrics(spec, store)[spec.cases[0].label]
    phases = (
        ("before crash", "before"),
        ("after crash", "crash"),
        ("after repair", "repaired"),
    )
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=["phase", "queries ok", "query msgs", "repair msgs", "contacts held"],
        rows=[
            [
                phase,
                int(m[f"ok_{key}"]),
                int(m[f"msgs_{key}"]),
                int(m["repair_msgs"]) if key == "repaired" else 0,
                int(m[f"contacts_{key}"]),
            ]
            for phase, key in phases
        ],
        notes=[
            f"{int(m['num_failed'])} of {int(m['num_nodes'])} nodes crashed "
            f"({100 * float(spec.workload.get('fail_fraction', 0.15)):.0f}%); "
            f"repair = one validation+replenish round per surviving source "
            f"({int(m['contacts_lost'])} contacts dropped)",
            "success counted over workload pairs whose endpoints survive",
        ],
        raw={
            key: (int(m[f"ok_{key}"]), int(m[f"msgs_{key}"]))
            for _, key in phases
        },
    )


ABLATION_FAILURES = define(
    "ablation_failures",
    "Ablation — robustness to node crashes (requirement c)",
    section="extension (requirement c)",
    description="Query success before/after a crash wave and repair",
    recipe=Sweep(
        salt="failures",
        metrics=("failures",),
        workload=("num_queries", "fail_fraction"),
        options={
            **_SELECTION_OPTIONS, "noc": 5, "fail_fraction": 0.15,
            "num_queries": 40,
        },
        base=lambda o: {**_selection_base(o), "depth": 3},
        cases=lambda o: [case("failures")],
    ),
    table=_failures_table,
    xl_defaults={"num_queries": 60, "num_sources": 400},
)

ABLATION_EDGE_POLICY = define(
    "ablation_edge_policy",
    "Ablation — CSQ edge-launch heuristics (future work §V)",
    section="extension (§V future work)",
    description="RANDOM vs SPREAD vs DEGREE edge-launch order",
    recipe=Sweep(
        salt="edgepol",
        metrics=("reachability", "overhead"),
        options=_SELECTION_OPTIONS,
        base=_selection_base,
        cases=lambda o: [
            case(policy.value, edge_policy=policy.value) for policy in EdgePolicy
        ],
    ),
    table=partial(
        variant_rows,
        first="policy",
        columns=(_REACH, ("contacts", "mean_contacts", 2), _FORWARD, _BACKTRACK),
        notes=(
            "SPREAD = farthest-point sampling over the edge set's hop "
            "metric (GPS-free); DEGREE = densest-region first",
            "N={n}, R={R}, r={r}, NoC={noc}",
        ),
    ),
)


# ----------------------------------------------------------------------
# extensions (campaign-native: no historical runner ever existed)
# ----------------------------------------------------------------------
SMALLWORLD = define(
    "smallworld",
    "Extension — small-world statistics of the contact structure",
    section="extension (§I motivation)",
    description="Clustering/path-length contraction contacts induce",
    recipe=Sweep(
        salt="smallworld",
        metrics=("smallworld",),
        options={
            "R": 3, "r": 12, "noc_values": (0, 1, 2, 4, 6), "num_sources": None,
        },
        base=lambda o: {"R": o.R, "r": o.r},
        cases=lambda o: [case(f"NoC={int(k)}", noc=int(k)) for k in o.noc_values],
    ),
    table=partial(
        variant_rows,
        first="NoC",
        key=case_value,
        raw_key=case_value,
        columns=(
            ("clustering C", "clustering", 3),
            ("path length L", "path_length", 2),
            ("L w/ shortcuts", "augmented_path_length", 2),
            ("gain", "shortcut_gain", 3),
            ("mean separation", "mean_separation", 2),
            ("coverage %", "coverage", 1, 100),
        ),
        notes=(
            "unit-disk MANets are clustered but long-pathed; contacts are "
            "Watts-Strogatz shortcuts — L shrinks as NoC grows while C is a "
            "property of the physical graph (unchanged)",
            "N={n}, R={R}, r={r}",
        ),
    ),
)

MOBILITY_RATE = define(
    "mobility_rate",
    "Extension — overhead vs mobility rate (RWP speed sweep)",
    section="extension (ROADMAP: overhead vs mobility rate)",
    description="Link churn, overhead and substrate refresh vs speed",
    regime="series",
    # RWP max speed swept pedestrian through vehicular, min speed fixed so
    # only the rate varies; the `churn` family stores link_churn and the
    # substrate's refresh split per cell
    recipe=_mobile_sweep(
        salt="mobrate",
        metrics=("series", "contacts", "churn"),
        options={
            "duration": 10.0, "max_speeds": (1.0, 3.0, 6.0, 10.0),
            "num_sources": None,
        },
        cases=lambda o: [
            case(
                f"v<={float(v):g}",
                mobility=MobilitySpec(
                    model="rwp", min_speed=0.5, max_speed=float(v), pause=2.0
                ),
            )
            for v in o.max_speeds
        ],
    ),
    table=partial(
        variant_rows,
        first="max speed",
        columns=(
            ("links changed/step", "mean_link_churn", 2),
            ("ovh/node/bin", "mean_overhead", 2),
            ("maint/node/bin", "mean_maintenance", 2),
            ("contacts lost", "total_lost"),
            (
                "substrate incr",
                lambda m: m["substrate_stats"]["incremental_updates"],
            ),
            ("substrate full", lambda m: m["substrate_stats"]["full_rebuilds"]),
        ),
        plot=lambda by_label, rows: ascii_series(
            {
                "links changed/step": [
                    float(m["mean_link_churn"]) for m in by_label.values()
                ],
                "ovh/node/bin": [
                    float(m["mean_overhead"]) for m in by_label.values()
                ],
            },
            list(range(len(rows))),
            title="overhead and link churn vs mobility rate (case index)",
        ),
        notes=(
            "faster nodes churn more links per mobility step, which costs "
            "twice: more failed validations (maintenance/re-selection "
            "overhead) and more substrate refresh work per step",
            "N={n}, R=3, r=12, NoC=5, {duration:g}s RWP per speed band; "
            "churn/substrate figures from the `churn` metric family "
            "(link_churn + substrate_stats, stored per cell)",
        ),
    ),
)


FIG_DES_LATENCY = define(
    "fig_des_latency",
    "Extension — discovery latency under the event-driven regime",
    section="extension (ROADMAP: message-level DES regime)",
    description="Discovery latency/loss/staleness vs link latency",
    regime="des",
    # per-link latency swept as labelled cases of the message-level DES
    # under the default RWP mobility, so query replies race topology churn
    # against the stale contact tables
    recipe=Sweep(
        metrics=("des",),
        mobility=DEFAULT_MOBILITY,
        options={
            "latencies": (0.002, 0.01, 0.05), "loss": 0.01, "duration": 10.0,
            "num_queries": 30, "R": 3, "r": 10, "noc": 5, "num_sources": None,
        },
        base=_selection_base,
        cases=lambda o: [
            case(
                f"lat={1000.0 * float(v):g}ms",
                des=DesSpec(
                    latency=float(v),
                    loss=float(o.loss),
                    duration=float(o.duration),
                    num_queries=int(o.num_queries),
                ),
                topology=standard(o.n, ("fig_des", f"{float(v):g}")),
            )
            for v in o.latencies
        ],
    ),
    table=partial(
        variant_rows,
        first="case",
        columns=(
            ("success %", "success_rate", 1, 100),
            ("zone hits", "zone_hits"),
            ("lat mean (ms)", "latency_mean", 2, 1000.0),
            ("lat p50 (ms)", "latency_p50", 2, 1000.0),
            ("lat p95 (ms)", "latency_p95", 2, 1000.0),
            ("timeouts", "timeouts"),
            ("stale drops", "stale_drops"),
            ("loss drops", "loss_drops"),
            ("query msgs", lambda m: int(m["query_msgs"]) + int(m["reply_msgs"])),
            ("byte·s", "byte_seconds", 2),
        ),
        plot=lambda by_label, rows: ascii_histogram(
            list(by_label),
            [1000.0 * float(m["latency_p95"]) for m in by_label.values()],
            title="p95 discovery latency (ms) per link configuration",
        ),
        notes=(
            "{des.num_queries} queries per cell over {des.duration:g}s, "
            "loss={des.loss:g}, query timeout {des.query_timeout:g}s "
            "({des.retries} retries); RWP speeds {speed} m/s, pause {pause}s",
            "N={n}; latencies are query-launch → reply-received on the "
            "DES clock (zone hits answer locally at latency 0)",
            "stale drops = forwards onto links the contact table still "
            "advertises but mobility already broke; loss drops = channel "
            "loss draws",
        ),
    ),
    xl_defaults={**_XL_SERIES, "num_queries": 60},
)


# ----------------------------------------------------------------------
# mean ± CI variants of the headline artifacts: the base recipe over a
# seed tuple (cells keep their single-seed content hashes, so one store
# warms both), group-reduced instead of read cell by cell
# ----------------------------------------------------------------------
#: default seed tuple of the first-class CI artifacts
DEFAULT_CI_SEEDS = (0, 1, 2)


def _ci_table(
    spec, store, *, exp_id, title, heading, by, values, plot, note
) -> ExperimentResult:
    """Group the stored cells on ``by`` to mean ± CI rows, plus one plot."""
    result = aggregate_table(
        spec,
        store,
        by=by,
        values=values,
        title=f"{heading}, mean ± 95% CI over {len(set(spec.seeds))} seeds",
    )
    result.exp_id = exp_id
    result.plots.append(plot(result))
    result.notes.append(f"seeds {tuple(spec.seeds)}; {note}")
    return result


def _ci_envelope(result: ExperimentResult) -> str:
    mean = [float(row[1]) for row in result.rows]
    half = [float(row[2]) for row in result.rows]
    return ascii_series(
        {
            "mean": mean,
            "+95%": [m + h for m, h in zip(mean, half)],
            "-95%": [max(0.0, m - h) for m, h in zip(mean, half)],
        },
        [row[0] for row in result.rows],
        title="mean reachability (%) vs NoC with 95% CI envelope",
    )


def _ci_hops(result: ExperimentResult) -> str:
    idx = result.headers.index("mean_hops")
    return ascii_histogram(
        [str(row[0]) for row in result.rows],
        [float(row[idx]) for row in result.rows],
        title="mean hop count per scenario (± CI in table)",
    )


_CI = dict(
    defaults={"seeds": DEFAULT_CI_SEEDS},
    default_seeds=DEFAULT_CI_SEEDS,
    multi_seed=True,
)

FIG07_CI = define(
    "fig07_ci",
    "Fig 7 (CI) — Reachability vs NoC, mean ± 95% CI over seeds",
    section="§IV.A, Fig 7 (multi-seed extension)",
    description="Fig 7's sweep × seeds, group-reduced to mean ± CI",
    recipe=_FIG07_SWEEP,
    table=partial(
        _ci_table,
        heading="Fig 7 (CI) — Reachability vs Number of Contacts",
        by=["noc"],
        values=["mean_reachability", "mean_contacts"],
        plot=_ci_envelope,
        note="one cell per (NoC, seed), CI over seeds",
    ),
    **_CI,
)

TABLE1_CI = define(
    "table1_ci",
    "Table 1 (CI) — Scenario statistics, mean ± 95% CI over seeds",
    section="§IV, Table 1 (multi-seed extension)",
    description="Table 1 × seeds, per-scenario mean ± CI",
    recipe=_table1_spec,
    options=("seeds",),
    table=partial(
        _ci_table,
        heading="Table 1 (CI) — Scenario connectivity statistics",
        by=["topology"],
        values=["num_links", "mean_degree", "diameter", "mean_hops"],
        plot=_ci_hops,
        note="every scenario re-drawn per seed",
    ),
    **_CI,
)


#: every artifact, in ``python -m repro.campaign figure all`` execution order
DEFINITIONS: Tuple[Artifact, ...] = (
    TABLE1, FIG03, FIG04, FIG03_04, FIG05, FIG06, FIG07, FIG08, FIG09,
    FIG10, FIG11, FIG12, FIG13, FIG14, FIG15,
    ABLATION_PM_EQ, ABLATION_OVERLAP, ABLATION_RECOVERY, ABLATION_QUERY,
    ABLATION_MOBILITY, ABLATION_FAILURES, ABLATION_EDGE_POLICY,
    SMALLWORLD, MOBILITY_RATE, FIG_DES_LATENCY, FIG07_CI, TABLE1_CI,
)
