"""Campaign execution: grid expansion, caching, process fan-out.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.CampaignSpec`
into work:

1. expand the spec into cells and hash each one;
2. drop cells the :class:`~repro.campaign.store.ResultStore` already
   holds (cache hits — this is also what makes ``resume`` incremental);
3. execute the rest, either in-process (``n_workers=1``, bit-identical
   and debugger-friendly) or over a ``multiprocessing`` pool;
4. append every finished cell to the store as soon as it lands (only the
   parent writes, so the JSONL file needs no locking).

Cells are pure functions of their spec — every random stream is derived
from the cell's own seed — so the worker count and completion order
cannot change any stored metric, only the wall-clock.

:func:`execute_cell` is the single entry point workers run.  It covers
the three measurement regimes: snapshot cells (contact selection on a static
topology, plus the structural/workload families), time-series cells
(:class:`~repro.core.runner.TimeSeriesRunner` under a declarative
:class:`~repro.campaign.spec.MobilitySpec`) and event-driven cells
(:class:`~repro.core.des_runner.DesRunner`).  Series and des cells run on
one engine: a series run is a des run with no query workload, plus a
sampler that closes each stats bin.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import CellStore, StoreLike, open_store
from repro.obs import CellTrace, ObsConfig
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine
from repro.core.reachability import reachability_distribution
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

__all__ = ["CampaignRunner", "CampaignReport", "CellOutcome", "execute_cell"]

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


# ----------------------------------------------------------------------
def execute_cell(cell: CellSpec) -> Dict[str, object]:
    """Run one cell and return its flat, JSON-safe metrics dict.

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
    with obs.span("topology_build"):
        topo = cell.topology.build(cell.seed)
    if cell.is_des or cell.is_time_series:
        out = _execute_mobile(cell, topo)
    else:
        out = _execute_snapshot(cell, topo)
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


def _execute_snapshot(cell: CellSpec, topo: Topology) -> Dict[str, object]:
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
    selection_families = {"reachability", "overhead", "overlap", "tradeoff"}
    if selection_families & set(cell.metrics):
        with obs.span("metrics:selection"):
            out.update(_selection_metrics(cell, topo))
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


def _selection_metrics(cell: CellSpec, topo: Topology) -> Dict[str, object]:
    """The SnapshotRunner families: one selection run, several views."""
    params: CARDParams = cell.resolved_params()
    sources = sample_sources(topo.num_nodes, cell.num_sources, cell.seed)
    if cell.full_selection:
        # every node selects contacts; `sources` only bounds measurement
        runner = SnapshotRunner(topo, params, seed=cell.seed, sources=None)
        result = runner.run()
        reach = runner.protocol.reachability(sources)
        distribution = reachability_distribution(reach)
        measured = topo.num_nodes if sources is None else len(sources)
    else:
        runner = SnapshotRunner(topo, params, seed=cell.seed, sources=sources)
        result = runner.run()
        reach = result.reachability
        distribution = result.distribution
        measured = len(result.sources)
    out: Dict[str, object] = {}
    if "reachability" in cell.metrics:
        out["mean_reachability"] = float(reach.mean()) if reach.size else 0.0
        out["distribution"] = [int(v) for v in distribution]
        out["mean_contacts"] = float(result.mean_contacts)
        out["measured_sources"] = measured
    if "overhead" in cell.metrics:
        out["selection_msgs_per_source"] = float(result.selection_per_node())
        out["backtrack_msgs_per_source"] = float(result.backtracking_per_node())
        for category, count in result.message_totals.items():
            out[f"msgs_{category}"] = int(count)
    if "overlap" in cell.metrics:
        out["overlap_fraction"] = float(runner.overlap_fraction())
    if "tradeoff" in cell.metrics:
        out["route_hops"] = runner.route_hops()
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


def _worker(payload: Tuple[str, Dict[str, object], Optional[Dict[str, object]]]):
    """Pool target: run one serialised cell, never raise.

    Returns ``(key, metrics, elapsed, error, trace_record)``.  When
    telemetry is configured (third payload element non-None) the worker
    activates a :class:`~repro.obs.CellTrace` for the cell, appends the
    finished record to the trace file itself (each process owns its own
    appends — crash-safe, no locks) and also returns the record so the
    parent can embed/summarise without re-reading the file.
    """
    key, cell_dict, obs_dict = payload
    config = None if obs_dict is None else ObsConfig.from_dict(obs_dict)
    trace_record: Optional[Dict[str, object]] = None
    started = time.perf_counter()  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics
    error: Optional[str] = None
    metrics: Optional[Dict[str, object]] = None
    if config is not None:
        obs.activate(CellTrace(key, memory=config.memory))
    try:
        metrics = execute_cell(CellSpec.from_dict(cell_dict))
    except Exception:  # noqa: BLE001 - report, don't kill the pool
        error = traceback.format_exc()
    finally:
        if config is not None:
            trace = obs.current()
            obs.deactivate()
            if trace is not None:
                trace_record = trace.finish(error=error)
                if config.trace_path is not None:
                    obs.write_record(config.trace_path, trace_record)
    return key, metrics, time.perf_counter() - started, error, trace_record  # card-lint: disable=CARD-D01 -- worker wall-time telemetry; never enters metrics


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
        Per-cell tracing (see :class:`repro.obs.ObsConfig.coerce`):
        ``None``/``False`` off (the default — zero overhead, stored
        records byte-identical), ``True`` on with the trace file next to
        the store, a path for an explicit trace file, or a full
        :class:`~repro.obs.ObsConfig`.  Cell *metrics* and content
        hashes are identical either way; only the trace file and (with
        ``embed=True``) a top-level ``_obs`` block differ.
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
        self.telemetry: Optional[ObsConfig] = ObsConfig.coerce(
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
                embed = None
                if (
                    trace_record is not None
                    and self.telemetry is not None
                    and self.telemetry.embed
                ):
                    embed = {
                        k: trace_record[k]
                        for k in ("pid", "elapsed", "phases", "counters")
                        if k in trace_record
                    }
                self.store.append(
                    key,
                    by_key[key].to_dict(),
                    metrics,  # type: ignore[arg-type]
                    meta={
                        "campaign": self.spec.name,
                        "elapsed": round(elapsed, 4),
                        "finished_at": time.time(),  # card-lint: disable=CARD-D01 -- store meta timestamp; outside the content hash
                    },
                    obs=embed,
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
        """Yield (key, metrics, elapsed, error, trace) per pending cell."""
        if not pending:
            return
        obs_dict = None if self.telemetry is None else self.telemetry.to_dict()
        payloads = [(key, cell.to_dict(), obs_dict) for key, cell in pending]
        if self.n_workers == 1 or len(payloads) == 1:
            for payload in payloads:
                yield _worker(payload)
            return
        # the platform-default start method (fork on Linux, spawn on
        # macOS/Windows — fork is unsafe under the Objective-C runtime);
        # payloads are plain JSON-ready dicts, so both methods work
        ctx = mp.get_context()
        with ctx.Pool(processes=min(self.n_workers, len(payloads))) as pool:
            yield from pool.imap_unordered(_worker, payloads)
