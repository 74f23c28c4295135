"""Campaign execution: grid expansion, caching, sweep groups, process fan-out.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.CampaignSpec`
into work:

1. expand the spec into cells and hash each one;
2. drop cells the :class:`~repro.campaign.store.ResultStore` already
   holds (cache hits — this is also what makes a re-run incremental);
3. partition the rest into sweep groups (:func:`sweep_groups`): snapshot
   cells that differ only in NoC or D share one topology, one distance
   band and one contact-selection run, at the group's largest NoC, and
   each member reads its own NoC and D off that run; every other cell
   is a group of one;
4. execute the groups, either in-process (``n_workers=1``, bit-identical
   and debugger-friendly) or over worker processes that each hold one
   group at a time, so a group that kills its worker fails by name while
   every other group runs once, and a worker whose parent is gone exits
   when its group ends;
5. append every finished cell to the store as soon as its group lands
   (only the parent writes, so the JSONL file needs no locking).

Cells are pure functions of their spec — every random stream is derived
from the cell's own seed, and selection at NoC=k is the k-contact prefix
of selection at any larger NoC — so the worker count, the grouping and
the completion order cannot change any stored metric, only the
wall-clock.

:func:`execute_cell` is the single entry point workers run, once per
group member.  It covers the three measurement regimes: snapshot cells
(contact selection on a static topology, plus the structural/workload
families), time-series cells
(:class:`~repro.core.runner.TimeSeriesRunner` under a declarative
:class:`~repro.campaign.spec.MobilitySpec`) and event-driven cells
(:class:`~repro.core.des_runner.DesRunner`).  Series and des cells run on
one engine: a series run is a des run with no query workload, plus a
sampler that closes each stats bin.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import CellStore, StoreLike, open_store
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine
from repro.core.des_runner import DesRunner
from repro.core.runner import SnapshotRunner, TimeSeriesRunner
from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.expanding_ring import ExpandingRingDiscovery
from repro.discovery.flooding import FloodingDiscovery
from repro.net.network import Network
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from repro.scenarios.factory import query_workload, sample_sources
from repro.util.rng import spawn_rng

__all__ = [
    "CampaignRunner",
    "CampaignReport",
    "CellOutcome",
    "execute_cell",
    "sweep_groups",
]

#: Above this node count the ``topology``/``smallworld`` families switch
#: their path-length statistics to the sampled no-APSP estimator
#: (:func:`repro.net.graph.sample_pair_stats`); every default-scale
#: configuration (N ≤ 1000) stays on the exact branch, so stored metrics
#: and golden fixtures are unchanged.
PAIR_STATS_THRESHOLD = 4096

#: BFS sources the sampled estimator draws.
PAIR_STATS_SAMPLE = 256


def _pair_sample(num_nodes: int) -> Optional[int]:
    return PAIR_STATS_SAMPLE if num_nodes >= PAIR_STATS_THRESHOLD else None


#: Metric families read off one contact-selection run.  Snapshot cells
#: that record only these and differ only in ``params.noc`` or
#: ``params.depth`` form one sweep group (:func:`sweep_groups`).
SELECTION_FAMILIES = frozenset({"reachability", "overhead", "overlap", "tradeoff"})


def _group_key(cell: CellSpec) -> str:
    """The cell's spec without the NoC and D of a groupable cell: cells
    with equal keys share one selection run."""
    data = cell.to_dict()
    if (
        not (cell.is_des or cell.is_time_series)
        and set(cell.metrics) <= SELECTION_FAMILIES
    ):
        data["params"] = {
            k: v for k, v in data["params"].items() if k not in ("noc", "depth")
        }
    return json.dumps(data, sort_keys=True)


def sweep_groups(
    pairs: Sequence[Tuple[str, CellSpec]],
) -> List[List[Tuple[str, CellSpec]]]:
    """Partition ``(key, cell)`` pairs into sweep groups, each ordered
    by descending resolved NoC (the leader first), groups in order of
    their first member.

    Cells whose specs differ only in ``params.noc`` or ``params.depth``
    and record only :data:`SELECTION_FAMILIES` share a group; every
    other cell is a group of one.  Run a group's members in this order
    through :func:`execute_cell` with one ``shared`` dict.
    """
    groups: Dict[str, List[Tuple[str, CellSpec]]] = {}
    for key, cell in pairs:
        groups.setdefault(_group_key(cell), []).append((key, cell))
    return [
        sorted(members, key=lambda kc: -kc[1].resolved_params().noc)
        for members in groups.values()
    ]


# ----------------------------------------------------------------------
def execute_cell(
    cell: CellSpec, shared: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Run one cell and return its flat, JSON-safe metrics dict.

    ``shared`` carries what the members of one sweep group
    (:func:`sweep_groups`) share: pass the same dict to every member,
    in group order.  The first member builds the topology and, for the
    selection families, runs contact selection at its NoC; each later
    member reads its own NoC and D off that run
    (:meth:`~repro.core.runner.SnapshotRunner.view`), with the metrics
    it would have had alone.  Without ``shared`` the cell is a group of
    one.

    Snapshot metric families (selected by ``cell.metrics``):

    * ``topology`` — Table 1 connectivity statistics of the built graph;
    * ``reachability`` — mean/distribution of per-source reachability
      after contact selection;
    * ``overhead`` — CSQ message costs and network-wide message totals;
    * ``overlap`` — fraction of selected contacts whose neighborhood
      overlaps the source's (true distance ≤ 2R);
    * ``tradeoff`` — per-source stored-route hops and the ≥50 %
      reachability fraction (Fig 14's extra observables);
    * ``smallworld`` — clustering / path length / shortcut statistics of
      the contact structure;
    * ``comparison`` — CARD vs flooding vs bordercasting over a random
      query workload (Fig 15);
    * ``query`` — one discovery scheme (``workload["scheme"]``) over a
      random workload;
    * ``failures`` — query success before/after a node-crash wave and
      after one repair round.

    Time-series families (``cell.duration``/``cell.mobility`` set) are
    produced by :meth:`~repro.core.runner.TimeSeriesResult.to_metrics`:
    ``series``, ``contacts`` and ``churn``.

    Event-driven cells (``cell.des`` set) are produced by
    :meth:`~repro.core.des_runner.DesResult.to_metrics`: the ``des``
    family (discovery latency distribution, staleness/loss failure
    split, overhead in messages and byte·seconds).
    """
    shared = {} if shared is None else shared
    group = _group_key(cell)
    if shared.setdefault("group", group) != group:
        raise ValueError("execute_cell: cell is not in the shared run's sweep group")
    topo = shared.get("topology")
    if topo is None:
        with obs.span("topology_build"):
            topo = shared["topology"] = cell.topology.build(cell.seed)
    if cell.is_des or cell.is_time_series:
        out = _execute_mobile(cell, topo)
    else:
        out = _execute_snapshot(cell, topo, shared)
    if obs.active():
        # cold-vs-refresh split: full_rebuilds counts cold band builds,
        # incremental_updates/rows_recomputed the mobility refresh work
        for name, value in topo.substrate_stats().items():
            obs.set_counter(f"substrate_{name}", value)
    return out


def _execute_mobile(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """Series and event-driven regimes, one engine: a series cell is a
    des run with no query workload plus a bin sampler; a des cell adds
    message-level DSQs with per-link latency/loss."""
    params = cell.resolved_params()
    sources = sample_sources(topo.num_nodes, cell.num_sources, cell.seed)
    factory = None if cell.mobility is None else cell.mobility.factory()
    des = cell.des
    if des is None:
        series = TimeSeriesRunner(
            topo,
            params,
            factory,
            duration=cell.duration,  # type: ignore[arg-type]
            seed=cell.seed,
            sources=sources,
            track_link_deltas="churn" in cell.metrics,
        )
        with obs.span("metrics:series"):
            return series.run().to_metrics(cell.metrics)
    runner = DesRunner(
        topo,
        params,
        link=des.link_spec(),
        duration=des.duration,
        num_queries=des.num_queries,
        query_timeout=des.query_timeout,
        retries=des.retries,
        seed=cell.seed,
        sources=sources,
        mobility_factory=factory,
    )
    with obs.span("des_run"):
        return runner.run().to_metrics(cell.metrics)


def _execute_snapshot(
    cell: CellSpec, topo: Topology, shared: Dict[str, object]
) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if "topology" in cell.metrics:
        with obs.span("metrics:topology"):
            st = topo.stats(
                pair_sample=_pair_sample(topo.num_nodes),
                rng=spawn_rng(cell.seed, "pairstats"),
            )
        out.update(
            num_nodes=st.num_nodes,
            num_links=st.num_links,
            mean_degree=float(st.mean_degree),
            diameter=int(st.diameter),
            mean_hops=float(st.mean_hops),
            giant_size=int(st.giant_size),
            num_components=int(st.num_components),
        )
        if st.diameter_upper is not None:
            # sampled estimator (N ≥ PAIR_STATS_THRESHOLD): record the
            # honest interval next to the point values — additive keys,
            # absent (and exact) at default scale
            out.update(
                diameter_lower=int(st.diameter),
                diameter_upper=int(st.diameter_upper),
                mean_hops_se=float(st.mean_hops_se or 0.0),
            )
    if SELECTION_FAMILIES & set(cell.metrics):
        with obs.span("metrics:selection"):
            out.update(_selection_metrics(cell, topo, shared))
    if "smallworld" in cell.metrics:
        with obs.span("metrics:smallworld"):
            out.update(_smallworld_metrics(cell, topo))
    if "comparison" in cell.metrics:
        with obs.span("metrics:comparison"):
            out.update(_comparison_metrics(cell, topo))
    if "query" in cell.metrics:
        with obs.span("metrics:query"):
            out.update(_query_metrics(cell, topo))
    if "failures" in cell.metrics:
        with obs.span("metrics:failures"):
            out.update(_failures_metrics(cell, topo))
    return out


def _selection_metrics(
    cell: CellSpec, topo: Topology, shared: Dict[str, object]
) -> Dict[str, object]:
    """The SnapshotRunner families: one selection run, several views.

    The group's first member selects at its NoC (the group's largest);
    every later member is a :meth:`~repro.core.runner.SnapshotRunner.view`
    of that run at its own NoC and D.
    """
    params: CARDParams = cell.resolved_params()
    runner = shared.get("selection")
    if isinstance(runner, SnapshotRunner):
        result = runner.view(params.noc, params.depth)
    else:
        sources = sample_sources(topo.num_nodes, cell.num_sources, cell.seed)
        # with full_selection every node selects contacts and `sources`
        # only bounds measurement
        runner = SnapshotRunner(
            topo,
            params,
            seed=cell.seed,
            sources=None if cell.full_selection else sources,
            measured=sources,
        )
        result = runner.run()
        shared["selection"] = runner
    reach = result.reachability
    out: Dict[str, object] = {}
    if "reachability" in cell.metrics:
        out["mean_reachability"] = float(reach.mean()) if reach.size else 0.0
        out["distribution"] = [int(v) for v in result.distribution]
        out["mean_contacts"] = float(result.mean_contacts)
        out["measured_sources"] = int(reach.size)
    if "overhead" in cell.metrics:
        out["selection_msgs_per_source"] = float(result.selection_per_node())
        out["backtrack_msgs_per_source"] = float(result.backtracking_per_node())
        for category, count in result.message_totals.items():
            out[f"msgs_{category}"] = int(count)
    if "overlap" in cell.metrics:
        out["overlap_fraction"] = float(runner.overlap_fraction(result))
    if "tradeoff" in cell.metrics:
        out["route_hops"] = result.route_hops()
        out["frac_ge50"] = float((reach >= 50.0).mean()) if reach.size else 0.0
    return out


def _smallworld_metrics(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """Small-world statistics of the contact structure (every node
    bootstraps; ``num_sources`` bounds the separation/coverage sample)."""
    from repro.analysis.smallworld import smallworld_report

    params = cell.resolved_params()
    sources = sample_sources(topo.num_nodes, cell.num_sources, cell.seed)
    card = CARDProtocol(Network(topo), params, seed=cell.seed)
    card.bootstrap()
    rep = smallworld_report(
        topo.adj,
        card.membership,
        card.contact_tables,
        sources,
        pair_sample=_pair_sample(topo.num_nodes),
        rng=spawn_rng(cell.seed, "pairstats"),
    )
    out = {
        "clustering": float(rep.clustering),
        "path_length": float(rep.path_length),
        "augmented_path_length": float(rep.augmented_path_length),
        "shortcut_gain": float(rep.shortcut_gain),
        "mean_separation": float(rep.mean_separation),
        "coverage": float(rep.coverage),
    }
    if rep.path_length_se is not None:
        # sampled path lengths carry their standard errors (additive
        # keys; absent at default scale where L is exact)
        out["path_length_se"] = float(rep.path_length_se)
        out["augmented_path_length_se"] = float(rep.augmented_path_length_se or 0.0)
    return out


def _comparison_metrics(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """Fig 15's three-scheme comparison on one topology + workload.

    Traffic counts forward transmissions plus receptions (``*_events``):
    a blind scheme's broadcasts are received by every neighbour of the
    transmitter, CARD's unicast hops once each.  ``*_prepare_msgs`` is
    the standing-state cost the paper shows as the "CARD Overhead" bar.
    """
    params = cell.resolved_params()
    num_queries = int(cell.workload["num_queries"])  # type: ignore[index]
    workload = query_workload(
        topo, num_queries, seed=cell.seed, distinct_sources=True
    )
    tables = NeighborhoodTables(topo, params.R)
    flood = FloodingDiscovery(Network(topo))
    border = BordercastDiscovery(Network(topo), tables, qd=QDMode.QD2)
    card = CARDProtocol(Network(topo), params, seed=cell.seed)
    out: Dict[str, object] = {"num_queries": len(workload)}

    def record(prefix: str, prepare: int, results, events: int) -> None:
        successes = sum(int(r.success) for r in results)
        out[f"{prefix}_msgs"] = int(sum(r.msgs for r in results))
        out[f"{prefix}_events"] = int(events)
        out[f"{prefix}_successes"] = int(successes)
        out[f"{prefix}_success_rate"] = (
            successes / len(workload) if workload else 0.0
        )
        out[f"{prefix}_prepare_msgs"] = int(prepare)

    for prefix, scheme in (("flood", flood), ("border", border)):
        results = [scheme.query(int(s), int(t)) for s, t in workload]
        record(prefix, 0, results, sum(r.radio_events for r in results))
    prepare = sum(r.total_msgs for r in card.bootstrap().values())
    results = card.query_many(workload, max_depth=params.depth)
    record("card", prepare, results, 2 * sum(r.msgs for r in results))
    return out


def _query_metrics(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """One discovery scheme over a random workload (query ablation)."""
    params = cell.resolved_params()
    num_queries = int(cell.workload["num_queries"])  # type: ignore[index]
    scheme = str(cell.workload["scheme"])  # type: ignore[index]
    workload = query_workload(
        topo, num_queries, seed=cell.seed, distinct_sources=True
    )
    if scheme == "ring":
        engine = ExpandingRingDiscovery(Network(topo))
        results = [engine.query(s, t) for s, t in workload]
    else:
        net = Network(topo)
        card = CARDProtocol(net, params, seed=cell.seed)
        card.bootstrap()
        engine = QueryEngine(
            net,
            card.tables,
            params,
            card.contact_tables,
            dedup=(scheme == "dsq"),
        )
        results = engine.query_many(workload)
    msgs = sum(r.msgs for r in results)
    successes = sum(int(r.success) for r in results)
    return {
        "query_msgs": int(msgs),
        "query_successes": int(successes),
        "num_queries": len(workload),
    }


def _failures_metrics(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """Crash a node fraction mid-deployment; measure before/after/repaired."""
    params = cell.resolved_params()
    num_queries = int(cell.workload["num_queries"])  # type: ignore[index]
    fail_fraction = float(cell.workload.get("fail_fraction", 0.15))  # type: ignore[union-attr]
    n = topo.num_nodes
    net = Network(topo)
    card = CARDProtocol(net, params, seed=cell.seed)
    card.bootstrap()
    workload = query_workload(
        topo, num_queries, seed=cell.seed, distinct_sources=True
    )

    def run_queries() -> Tuple[int, int]:
        # dead endpoints are not the protocol's failure
        live = [
            (s, t)
            for s, t in workload
            if topo.is_active(s) and topo.is_active(t)
        ]
        results = card.query_many(live)
        ok = sum(int(r.success) for r in results)
        msgs = sum(r.msgs for r in results)
        return ok, msgs

    ok0, msgs0 = run_queries()
    contacts0 = card.total_contacts()

    rng = spawn_rng(cell.seed, "failures")
    doomed = rng.choice(n, size=max(1, int(fail_fraction * n)), replace=False)
    topo.fail_nodes(doomed)
    ok1, msgs1 = run_queries()
    contacts1 = card.total_contacts()

    lost = 0
    survivors = [s for s in range(n) if topo.is_active(s)]
    before_repair = net.stats.total()
    for s in survivors:
        outcomes, _ = card.maintain(s)
        lost += sum(1 for o in outcomes if not o.ok)
    repair_msgs = net.stats.total() - before_repair
    ok2, msgs2 = run_queries()
    return {
        "ok_before": int(ok0),
        "msgs_before": int(msgs0),
        "contacts_before": int(contacts0),
        "ok_crash": int(ok1),
        "msgs_crash": int(msgs1),
        "contacts_crash": int(contacts1),
        "ok_repaired": int(ok2),
        "msgs_repaired": int(msgs2),
        "contacts_repaired": int(card.total_contacts()),
        "repair_msgs": int(repair_msgs),
        "contacts_lost": int(lost),
        "num_failed": int(len(doomed)),
        "num_nodes": int(n),
    }


def _worker(payload: Tuple[List[Tuple[str, Dict[str, object]]], bool, Optional[str]]):
    """Pool target: run one sweep group of serialised cells, never raise.

    ``payload`` is ``(members, trace_on, trace_path)`` with ``members``
    the group's ``(key, cell_dict)`` pairs, leader first.  Returns one
    ``(key, metrics, elapsed, error, trace_record)`` per member.  Each
    member runs inside its own :class:`~repro.obs.TracedCell` and is
    timed on its own, so the leader is charged the group's shared work
    (topology, band, selection) and every other member only its view:
    the members' times sum to the group's.  With tracing on each record
    is appended to ``trace_path`` from this process (each worker owns its
    own appends — crash-safe, no locks); the records also ride back so
    the parent can summarise without re-reading the file.
    """
    members, trace_on, trace_path = payload
    shared: Dict[str, object] = {}
    results = []
    for key, cell_dict in members:
        started = time.perf_counter()  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics
        metrics: Optional[Dict[str, object]] = None
        with obs.TracedCell(key, on=trace_on, path=trace_path) as traced:
            try:
                metrics = execute_cell(CellSpec.from_dict(cell_dict), shared)
            except Exception:  # noqa: BLE001 - report, don't kill the pool
                traced.error = traceback.format_exc()
        elapsed = time.perf_counter() - started  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics
        results.append((key, metrics, elapsed, traced.error, traced.record))
    return results


# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """What happened to one cell during a :meth:`CampaignRunner.run`."""

    key: str
    cell: CellSpec
    metrics: Optional[Dict[str, object]]
    elapsed: float = 0.0
    cached: bool = False
    error: Optional[str] = None
    #: the cell's finished obs record (None when telemetry is off/cached)
    trace: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignReport:
    """Summary of one campaign invocation."""

    spec_name: str
    total_cells: int
    executed: int
    cached: int
    failed: int
    elapsed: float
    outcomes: List[CellOutcome] = field(default_factory=list)

    @property
    def traces(self) -> List[Dict[str, object]]:
        """Finished obs records of executed cells (empty, telemetry off)."""
        return [o.trace for o in self.outcomes if o.trace is not None]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def counts(self) -> Dict[str, object]:
        """The JSON-safe execution counters (what the HTTP facade and
        ``ExperimentResult.campaign`` expose as run metadata)."""
        return {
            "total_cells": self.total_cells,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "elapsed": round(self.elapsed, 4),
        }

    def summary(self) -> str:
        return (
            f"campaign {self.spec_name!r}: {self.total_cells} cells — "
            f"{self.executed} executed, {self.cached} cached, "
            f"{self.failed} failed in {self.elapsed:.1f}s"
        )


# ----------------------------------------------------------------------
class CampaignRunner:
    """Expand a spec, skip stored cells, fan the rest out, persist results.

    Parameters
    ----------
    spec:
        The campaign to run.
    store:
        Result store — a :class:`~repro.campaign.store.CellStore`
        instance, a path/URI resolved by
        :func:`~repro.campaign.store.open_store` (``sqlite:///…`` or
        ``*.db`` selects the concurrent sqlite backend, any other path
        JSONL), or None for an ephemeral in-memory store.
    n_workers:
        Process-pool width.  1 (default) runs in-process — same numbers,
        no subprocess machinery — which is what determinism tests use.
    shard:
        ``(i, n)`` with ``1 <= i <= n`` — this runner is responsible for
        the i-th of n disjoint slices of the (deduplicated, expansion-
        ordered) cell set.  Shards partition by cell index modulo n, so
        the union over all shards is exactly the full campaign and cell →
        shard assignment is stable across machines.  Stores are keyed by
        content hash, so per-shard JSONL stores concatenate safely.
    telemetry:
        Per-cell tracing, resolved by :func:`repro.obs.resolve_telemetry`:
        ``None``/``False`` off (the default — zero overhead), ``True`` on
        with the trace file next to a persistent store (records kept in
        memory for an ephemeral one), or a trace file path.  Stored
        records, cell metrics and content hashes are identical either
        way; only the trace file differs.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: StoreLike = None,
        *,
        n_workers: int = 1,
        shard: Optional[Tuple[int, int]] = None,
        telemetry: object = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if shard is not None:
            index, count = int(shard[0]), int(shard[1])
            if count < 1 or not (1 <= index <= count):
                raise ValueError(
                    f"shard must be i/n with 1 <= i <= n, got {index}/{count}"
                )
            shard = (index, count)
        self.spec = spec
        self.store: CellStore = open_store(store)
        self.n_workers = int(n_workers)
        self.shard = shard
        self.trace_on, self.trace_path = obs.resolve_telemetry(
            telemetry, store_path=self.store.path
        )

    # ------------------------------------------------------------------
    def cells(self) -> List[Tuple[str, CellSpec]]:
        """(key, cell) pairs, deduplicated by key, in expansion order.

        With a shard configured, only this shard's slice is returned.
        """
        pairs = list(self.spec.unique_cells().items())
        if self.shard is None:
            return pairs
        index, count = self.shard
        return [p for k, p in enumerate(pairs) if k % count == index - 1]

    def status(self) -> Dict[str, object]:
        """How much of the campaign the store already holds."""
        pairs = self.cells()
        missing = [key for key, _ in pairs if key not in self.store]
        return {
            "spec": self.spec.name,
            "total": len(pairs),
            "done": len(pairs) - len(missing),
            "missing": missing,
            "shard": None if self.shard is None else f"{self.shard[0]}/{self.shard[1]}",
            "store_path": None if self.store.path is None else str(self.store.path),
            "store_bytes": self.store.size_bytes(),
        }

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        force: bool = False,
        progress: Optional[Callable[[CellOutcome, int, int], None]] = None,
    ) -> CampaignReport:
        """Execute every cell not yet stored (all cells when ``force``).

        ``progress`` (outcome, finished_count, pending_count) fires as
        each executed cell lands; cached cells are reported in the result
        but do not fire it.
        """
        started = time.perf_counter()  # card-lint: disable=CARD-D01 -- report wall-time; never enters metrics
        pairs = self.cells()
        outcomes: List[CellOutcome] = []
        pending: List[Tuple[str, CellSpec]] = []
        for key, cell in pairs:
            if not force and key in self.store:
                outcomes.append(
                    CellOutcome(
                        key=key,
                        cell=cell,
                        metrics=self.store.metrics(key),
                        cached=True,
                    )
                )
            else:
                pending.append((key, cell))

        by_key = dict(pairs)
        finished = 0
        for key, metrics, elapsed, error, trace_record in self._execute(pending):
            outcome = CellOutcome(
                key=key,
                cell=by_key[key],
                metrics=metrics,
                elapsed=elapsed,
                error=error,
                trace=trace_record,
            )
            if error is None:
                self.store.append(
                    key,
                    by_key[key].to_dict(),
                    metrics,  # type: ignore[arg-type]
                    meta={
                        "campaign": self.spec.name,
                        "elapsed": round(elapsed, 4),
                        "finished_at": time.time(),  # card-lint: disable=CARD-D01 -- store meta timestamp; outside the content hash
                    },
                )
            outcomes.append(outcome)
            finished += 1
            if progress is not None:
                progress(outcome, finished, len(pending))

        failed = sum(1 for o in outcomes if not o.ok)
        return CampaignReport(
            spec_name=self.spec.name,
            total_cells=len(pairs),
            executed=len(pending),
            cached=len(pairs) - len(pending),
            failed=failed,
            elapsed=time.perf_counter() - started,  # card-lint: disable=CARD-D01 -- report wall-time; never enters metrics
            outcomes=outcomes,
        )

    # ------------------------------------------------------------------
    def _execute(self, pending: List[Tuple[str, CellSpec]]):
        """Yield (key, metrics, elapsed, error, trace) per pending cell.

        Pending cells run in sweep groups (:func:`sweep_groups`): one
        topology, one distance band and one selection run per group.
        With ``n_workers > 1`` the groups fan out over worker processes
        that each hold one group at a time.  A group that kills its
        worker fails, every member by name, with the worker's exit code;
        every other group runs once, at full width, and no worker
        outlives the run.
        """
        payloads = [
            (
                [(key, cell.to_dict()) for key, cell in group],
                self.trace_on,
                self.trace_path,
            )
            for group in sweep_groups(pending)
        ]
        if self.n_workers == 1 or len(payloads) <= 1:
            for payload in payloads:
                yield from _worker(payload)
            return
        yield from _fan_out(payloads, self.n_workers)


def _serve(conn: Connection, parent_end: Connection) -> None:
    """Worker process body: run each group the parent sends, reply with
    its results, and stop at ``None`` or when the parent is gone."""
    # while this process holds the parent's end, a dead parent's pipe
    # would never read as end of file here
    parent_end.close()
    try:
        for payload in iter(conn.recv, None):
            conn.send(_worker(payload))
    except (EOFError, OSError):
        pass  # the parent is gone: nobody is left to take a result


def _fan_out(payloads, n_workers: int):
    """Run ``payloads`` on up to ``n_workers`` worker processes, yielding
    each member's result as its group lands.

    The parent sends a worker one group at a time, so it always knows
    the cells each worker holds.  A worker whose pipe reads as end of
    file has died: exactly its group's cells fail, and a new worker
    starts only while groups are still waiting.
    """
    # the platform-default start method (fork on Linux, spawn on
    # macOS/Windows — fork is unsafe under the Objective-C runtime);
    # payloads are plain JSON-ready dicts, so both methods work
    ctx = mp.get_context()
    todo = iter(payloads)
    workers: Dict[Connection, mp.process.BaseProcess] = {}
    busy: Dict[Connection, Tuple[List[str], float]] = {}
    try:
        while True:
            for payload in itertools.islice(todo, n_workers - len(busy)):
                conn = next((c for c in workers if c not in busy), None)
                if conn is None:
                    conn, child_end = ctx.Pipe()
                    workers[conn] = ctx.Process(
                        target=_serve,
                        args=(child_end, conn),
                        daemon=True,  # never blocks the exit of its parent
                    )
                    workers[conn].start()
                    child_end.close()
                conn.send(payload)
                busy[conn] = ([key for key, _ in payload[0]], time.perf_counter())  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics
            if not busy:
                return
            for conn in wait(list(busy)):
                keys, started = busy.pop(conn)
                try:
                    results = conn.recv()
                except EOFError:
                    process = workers.pop(conn)
                    process.join()
                    conn.close()
                    error = f"worker process died (exit code {process.exitcode})"
                    elapsed = time.perf_counter() - started  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics
                    results = [(key, None, elapsed, error, None) for key in keys]
                yield from results
    finally:
        for conn, process in workers.items():
            if conn in busy:
                process.terminate()
            else:
                # a worker that died idle has nobody left to read the None
                with contextlib.suppress(OSError):
                    conn.send(None)
        for conn, process in workers.items():
            process.join()
            conn.close()
