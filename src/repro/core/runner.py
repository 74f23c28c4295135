"""Experiment runners: static snapshots and mobile time series.

Two measurement regimes cover all of the paper's figures:

* :class:`SnapshotRunner` — a static topology; contacts are selected once
  and reachability / selection overhead are measured (Figs 3-9 and the
  trade-off Fig 14).  This matches the paper's reachability analysis,
  which evaluates the *structure* CARD builds.
* :class:`TimeSeriesRunner` — random-waypoint (or other) mobility with
  per-node periodic validation, local recovery and contact replenishment;
  control messages are binned over time (Figs 10-13).  It is the
  :class:`~repro.core.des_runner.DesRunner` engine with no query
  workload, plus a sampler that closes each stats bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.des_runner import DesRunner
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.reachability import reachability_distribution
from repro.core.selection import SourceSelectionResult
from repro.des.process import PeriodicProcess
from repro.net.link import LinkSpec
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.net.stats import OVERHEAD_CATEGORIES
from repro.net.topology import Topology

__all__ = [
    "SnapshotRunner",
    "SnapshotResult",
    "TimeSeriesRunner",
    "TimeSeriesResult",
]


# ----------------------------------------------------------------------
# snapshot regime
# ----------------------------------------------------------------------
@dataclass
class SnapshotResult:
    """Everything a reachability/overhead snapshot experiment reports."""

    params: CARDParams
    num_nodes: int
    #: sources that ran contact selection
    sources: List[int]
    #: reachability (%) of each measured source at the configured depth
    reachability: np.ndarray
    #: the 20-bin reachability histogram (Figs 5-9 series)
    distribution: np.ndarray
    #: per-source selection results (attempts, msgs, per-contact marks)
    selection: Dict[int, SourceSelectionResult]

    @property
    def mean_reachability(self) -> float:
        return float(self.reachability.mean()) if self.reachability.size else 0.0

    @property
    def mean_contacts(self) -> float:
        if not self.selection:
            return 0.0
        return float(
            np.mean([r.num_contacts for r in self.selection.values()])
        )

    @property
    def message_totals(self) -> Dict[str, int]:
        """Selection's message totals by category name, as
        :meth:`~repro.net.stats.MessageStats.snapshot` reports them: only
        categories that recorded something, sorted by name.  A CSQ walk
        transmits its forward and backtrack hops, and an admission sends
        the path reply back along the stored route."""
        results = self.selection.values()
        totals = {
            MessageKind.CONTACT_SELECTION.value: sum(r.forward_msgs for r in results),
            MessageKind.BACKTRACK.value: sum(r.backtrack_msgs for r in results),
            MessageKind.REPLY.value: sum(
                c.path_hops for r in results for c in r.table
            ),
        }
        return {k: v for k, v in sorted(totals.items()) if v > 0}

    def backtracking_per_node(self) -> float:
        """Mean CSQ backtracking messages per source (Fig 4's y-axis)."""
        if not self.selection:
            return 0.0
        return float(
            np.mean([r.backtrack_msgs for r in self.selection.values()])
        )

    def selection_per_node(self) -> float:
        """Mean CSQ forward messages per source."""
        if not self.selection:
            return 0.0
        return float(np.mean([r.forward_msgs for r in self.selection.values()]))

    def route_hops(self) -> List[int]:
        """Total stored-route hops per source, in source order.

        One validation cycle costs one message per path hop, so these
        are the per-source weights of Fig 14's maintenance term.
        """
        return [
            int(sum(c.path_hops for c in self.selection[s].table))
            for s in self.sources
        ]


class SnapshotRunner:
    """Static-topology CARD measurement.

    One :meth:`run` selects contacts once; :meth:`view` then reads what a
    run at any smaller NoC, and at any depth, would report — the sweep
    of Figs 3, 4, 7, 8 and 14 costs one selection instead of one per
    point.

    Parameters
    ----------
    topology:
        The (already placed) network.
    params:
        CARD configuration.
    seed:
        Root seed for protocol randomness.
    sources:
        Which nodes select contacts; default all.  Reachability at depth
        D≥2 follows contacts of *any* node, so restricting sources is only
        meaningful for D=1 studies or quick looks.
    measured:
        Whose reachability is measured; default ``sources``.  Fig 8 lets
        every node select and measures a sample.
    """

    def __init__(
        self,
        topology: Topology,
        params: CARDParams,
        *,
        seed: Optional[int] = None,
        sources: Optional[Sequence[int]] = None,
        measured: Optional[Sequence[int]] = None,
    ) -> None:
        self.network = Network(topology)
        self.params = params
        self.seed = seed
        self.sources = (
            list(range(topology.num_nodes))
            if sources is None
            else [int(s) for s in sources]
        )
        self.measured = self.sources if measured is None else [int(s) for s in measured]
        self.protocol = CARDProtocol(self.network, params, seed=seed)
        self.selection: Dict[int, SourceSelectionResult] = {}

    def run(self) -> SnapshotResult:
        """Select contacts for all sources, then measure at the
        configured NoC and depth."""
        with obs.span("bootstrap"):
            self.selection = self.protocol.bootstrap(self.sources)
        return self.view(self.params.noc, self.params.depth)

    def view(self, noc: int, depth: int) -> SnapshotResult:
        """What a run at NoC = ``noc`` and D = ``depth`` reports, read
        off this one: every source's first ``noc`` contacts and its
        counters at the ``noc``-th mark
        (:meth:`~repro.core.selection.SourceSelectionResult.prefix`),
        with reachability over those truncated tables at ``depth``.
        ``noc`` may not exceed the NoC this runner selected at.
        """
        if not 0 <= noc <= self.params.noc:
            raise ValueError(
                f"a view needs 0 <= noc <= {self.params.noc} (the NoC this "
                f"runner selected at), got {noc}"
            )
        selection = {s: r.prefix(noc) for s, r in self.selection.items()}
        with obs.span("reachability"):
            reach = self.protocol.reachability(self.measured, depth=depth, noc=noc)
        return SnapshotResult(
            params=replace(self.params, noc=noc, depth=depth),
            num_nodes=self.network.num_nodes,
            sources=list(self.sources),
            reachability=reach,
            distribution=reachability_distribution(reach),
            selection=selection,
        )

    # ------------------------------------------------------------------
    def overlap_fraction(self, result: SnapshotResult) -> float:
        """Fraction of ``result``'s contacts whose neighborhood overlaps
        their source's.

        Overlap means true hop distance <= 2R (the geometric condition
        Fig 1 illustrates) — which is exactly "inside the 2R band", so
        the check reads the 2R-horizon :class:`DistanceView` (shared
        incremental substrate) instead of an all-pairs matrix.  The Edge
        Method is designed to drive this to zero.  Used by the overlap
        ablations (and the campaign ``overlap`` metric family); not
        computed by default.
        """
        view = self.protocol.tables.contact_view
        total = 0
        overlapping = 0
        for s, res in result.selection.items():
            for c in res.table:
                total += 1
                if view.hops(s, c.node) >= 0:
                    overlapping += 1
        return overlapping / total if total else 0.0


# ----------------------------------------------------------------------
# time-series regime
# ----------------------------------------------------------------------
@dataclass
class TimeSeriesResult:
    """Binned control-message series under mobility (Figs 10-13)."""

    params: CARDParams
    num_nodes: int
    duration: float
    time_bin: float
    #: bin-end timestamps (2, 4, 6, ... as in the paper's x-axes)
    times: List[float]
    #: total overhead (selection+backtrack+validation) per node, per bin
    overhead: List[float]
    #: maintenance (validation) messages per node, per bin
    maintenance: List[float]
    #: selection forward messages per node, per bin
    selection: List[float]
    #: backtracking messages per node, per bin
    backtracking: List[float]
    #: total contacts held across sources, sampled at each bin end
    total_contacts: List[int]
    #: contacts lost / reselected per bin (summed over sources)
    lost_per_bin: List[int]
    #: number of sources maintaining contacts
    num_sources: int
    #: per-mobility-step link churn (nodes whose link set changed); empty
    #: unless the runner was built with ``track_link_deltas=True``
    link_churn: List[int] = field(default_factory=list)
    #: distance-substrate refresh accounting for the run (full rebuilds vs
    #: incremental updates) — the observable the perf harness regresses on
    substrate_stats: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_metrics(
        self, families: Sequence[str] = ("series", "contacts", "churn")
    ) -> Dict[str, object]:
        """Flatten the result into a JSON-safe metrics dict per family.

        This is the cell-executable view consumed by
        :func:`repro.campaign.runner.execute_cell`: every value is a
        plain Python scalar or list, so the dict round-trips through the
        JSONL result store bit-for-bit (``json`` serialises doubles via
        shortest-repr, which is exact).

        * ``series`` — bin timestamps plus the per-node, per-bin
          overhead/maintenance/selection/backtracking series (and their
          means, for scalar group-by reports);
        * ``contacts`` — total contacts held and contacts lost per bin;
        * ``churn`` — per-mobility-step link churn and the distance
          substrate's refresh statistics (full rebuilds vs incremental
          updates).
        """

        def mean(values: Sequence[float]) -> float:
            return float(np.mean(values)) if len(values) else 0.0

        out: Dict[str, object] = {}
        if "series" in families:
            out["times"] = [float(t) for t in self.times]
            out["time_bin"] = float(self.time_bin)
            out["duration"] = float(self.duration)
            out["num_sources"] = int(self.num_sources)
            for name in ("overhead", "maintenance", "selection", "backtracking"):
                series = [float(v) for v in getattr(self, name)]
                out[name] = series
                out[f"mean_{name}"] = mean(series)
        if "contacts" in families:
            out["total_contacts"] = [int(v) for v in self.total_contacts]
            out["lost_per_bin"] = [int(v) for v in self.lost_per_bin]
            out["final_contacts"] = (
                int(self.total_contacts[-1]) if self.total_contacts else 0
            )
            out["total_lost"] = int(sum(self.lost_per_bin))
        if "churn" in families:
            out["link_churn"] = [int(v) for v in self.link_churn]
            out["mean_link_churn"] = mean([float(v) for v in self.link_churn])
            out["substrate_stats"] = {
                str(k): int(v) for k, v in self.substrate_stats.items()
            }
        return out


class TimeSeriesRunner(DesRunner):
    """Mobility + maintenance measurement.

    The :class:`~repro.core.des_runner.DesRunner` engine with no query
    workload (so no message is ever delivered over a link), plus a
    sampler that records contacts held and contacts lost at each stats
    bin end.

    Parameters
    ----------
    topology, params, duration, seed, sources, mobility_step:
        As for :class:`~repro.core.des_runner.DesRunner`.
    mobility_factory:
        Callable ``(positions, area, rng) -> MobilityModel`` — lets callers
        choose RWP parameters or a different model entirely.
    track_link_deltas:
        Record per-step link churn into ``TimeSeriesResult.link_churn``
        (costs one adjacency rebuild per mobility step).
    """

    def __init__(
        self,
        topology: Topology,
        params: CARDParams,
        mobility_factory,
        *,
        duration: float = 10.0,
        seed: Optional[int] = None,
        sources: Optional[Sequence[int]] = None,
        mobility_step: float = 0.5,
        track_link_deltas: bool = False,
    ) -> None:
        super().__init__(
            topology,
            params,
            link=LinkSpec(),
            duration=duration,
            num_queries=0,
            seed=seed,
            sources=sources,
            mobility_factory=mobility_factory,
            mobility_step=mobility_step,
        )
        self.track_link_deltas = bool(track_link_deltas)

    # ------------------------------------------------------------------
    def run(self) -> TimeSeriesResult:
        stats = self.network.stats
        bin_w = stats.time_bin
        contacts: List[int] = []
        lost: List[int] = []  # cumulative contacts_lost at each bin end

        def sample_bin() -> None:
            contacts.append(self.protocol.total_contacts())
            lost.append(self.contacts_lost)

        self._start(track_deltas=self.track_link_deltas)
        # created after the timers, so same-time events keep their FIFO order
        self._procs.append(
            PeriodicProcess(self.sim, bin_w, sample_bin, start_delay=bin_w)
        )
        with obs.span("sim_run"):
            self.sim.run(until=self.duration)
        self._stop()
        # flush a final partial bin sample if the horizon isn't bin-aligned
        nbins = int(np.ceil(self.duration / bin_w))
        while len(contacts) < nbins:
            sample_bin()
        return TimeSeriesResult(
            params=self.params,
            num_nodes=self.network.num_nodes,
            duration=self.duration,
            time_bin=bin_w,
            times=[bin_w * (i + 1) for i in range(nbins)],
            overhead=stats.series(OVERHEAD_CATEGORIES, self.duration),
            maintenance=stats.series([MessageKind.VALIDATION], self.duration),
            selection=stats.series([MessageKind.CONTACT_SELECTION], self.duration),
            backtracking=stats.series([MessageKind.BACKTRACK], self.duration),
            total_contacts=contacts,
            lost_per_bin=[b - a for a, b in zip([0] + lost, lost)],
            num_sources=len(self.sources),
            link_churn=list(self._driver.delta_history),  # type: ignore[union-attr]
            substrate_stats=self.protocol.tables.substrate_stats(),
        )
