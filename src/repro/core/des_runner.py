"""The event-driven (``des``) measurement regime — the one mobile-run engine.

The paper evaluated CARD in NS-2, a message-level event-driven simulator.
The snapshot runner deliberately abstracts that away — every hop is
synchronous, so a query can never *race* topology churn, and there is no
latency to report.  :class:`DesRunner` closes that gap:

* every DSQ hop is a scheduled :meth:`~repro.net.network.Network.deliver`
  with per-link latency, jitter and loss (:class:`~repro.net.link.LinkSpec`);
* contact validation runs as jittered :class:`PeriodicProcess` timers, so
  maintenance interleaves with queries in event order instead of lockstep;
* replies travel back hop by hop and can die on links that broke *after*
  the query passed — the staleness race the ``des`` metric family
  measures (``stale_drops`` vs ``loss_drops``);
* queries time out and retry against the source's *current* contact
  table, up to a retry budget.

The series regime runs on the same engine: a
:class:`~repro.core.runner.TimeSeriesRunner` is a :class:`DesRunner` with
no query workload plus a bin sampler, so both regimes share one
bootstrap, one mobility driver and one set of validation timers.

Determinism: all randomness flows from the root seed through named
streams (:class:`~repro.util.rng.RngStreams` for workload/timers/mobility,
per-link streams inside :class:`~repro.net.link.LinkModel`), and the
simulator breaks timestamp ties FIFO — the same seed gives bit-identical
event orders on every run and any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.des.engine import EventHandle, Simulator
from repro.des.process import PeriodicProcess
from repro.mobility.base import MobilityDriver
from repro.net.link import LinkModel, LinkSpec
from repro.net.messages import (
    DestinationSearchQuery,
    MessageKind,
    QueryReply,
    next_query_id,
)
from repro.net.network import Network
from repro.net.stats import OVERHEAD_CATEGORIES
from repro.net.topology import Topology
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = ["DesRunner", "DesResult"]


class _Query:
    """Mutable in-flight state of one workload query."""

    __slots__ = (
        "source",
        "target",
        "t0",
        "done",
        "attempt",
        "timeout_handle",
    )

    def __init__(self, source: int, target: int, t0: float) -> None:
        self.source = source
        self.target = target
        #: workload launch time (latency is measured from here, across retries)
        self.t0 = t0
        self.done = False
        self.attempt = 0
        self.timeout_handle: Optional[EventHandle] = None


@dataclass
class DesResult:
    """Everything one event-driven run reports (the ``des`` metric family)."""

    params: CARDParams
    num_nodes: int
    duration: float
    num_sources: int
    #: end-to-end latency (s) of each successful query, in completion order
    latencies: List[float]
    queries: int
    successes: int
    failures: int
    #: queries answered from the source's own zone (latency 0)
    zone_hits: int
    timeouts: int
    retries_used: int
    #: in-flight copies dropped because a stored-route link had broken
    stale_drops: int
    #: in-flight copies dropped by the channel loss draw
    loss_drops: int
    #: contacts lost across all validation rounds
    contacts_lost: int
    #: contact-table sizes summed over sources at the end of the run
    final_contacts: int
    #: category → message totals for the whole run
    message_totals: Dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    #: ∑ wire_size × delay over delivered hops (link occupancy integral)
    byte_seconds: float = 0.0
    events_dispatched: int = 0

    # ------------------------------------------------------------------
    def to_metrics(self, families: Sequence[str] = ("des",)) -> Dict[str, object]:
        """Flatten into the JSON-safe dict stored per campaign cell."""
        out: Dict[str, object] = {}
        if "des" not in families:
            return out
        lat = np.asarray(self.latencies, dtype=np.float64)
        out["duration"] = float(self.duration)
        out["num_sources"] = int(self.num_sources)
        out["queries"] = int(self.queries)
        out["successes"] = int(self.successes)
        out["failures"] = int(self.failures)
        out["success_rate"] = (
            float(self.successes / self.queries) if self.queries else 0.0
        )
        out["zone_hits"] = int(self.zone_hits)
        out["timeouts"] = int(self.timeouts)
        out["retries_used"] = int(self.retries_used)
        out["stale_drops"] = int(self.stale_drops)
        out["loss_drops"] = int(self.loss_drops)
        out["contacts_lost"] = int(self.contacts_lost)
        out["final_contacts"] = int(self.final_contacts)
        out["latencies"] = [float(v) for v in self.latencies]
        out["latency_mean"] = float(lat.mean()) if lat.size else 0.0
        out["latency_p50"] = float(np.percentile(lat, 50)) if lat.size else 0.0
        out["latency_p95"] = float(np.percentile(lat, 95)) if lat.size else 0.0
        out["message_totals"] = {
            str(k): int(v) for k, v in self.message_totals.items()
        }
        out["overhead_msgs"] = int(
            sum(
                self.message_totals.get(k.value, 0)
                for k in OVERHEAD_CATEGORIES
            )
        )
        out["query_msgs"] = int(self.message_totals.get(MessageKind.QUERY.value, 0))
        out["reply_msgs"] = int(self.message_totals.get(MessageKind.REPLY.value, 0))
        out["total_bytes"] = int(self.total_bytes)
        out["byte_seconds"] = float(self.byte_seconds)
        out["events_dispatched"] = int(self.events_dispatched)
        return out


class DesRunner:
    """Event-driven CARD measurement: queries, validation and churn race.

    Parameters
    ----------
    topology, params:
        As for the other runners.
    link:
        Channel model parameters for every link.
    duration:
        Simulated seconds after the bootstrap selection.
    num_queries:
        Workload size; launch times are spread deterministically over
        ``[0.2, 0.8] × duration`` so maintenance has churned the tables
        before the first query and replies have room to return.
    query_timeout:
        Seconds a query waits for its reply before retrying/failing.
    retries:
        Extra attempts after the first timeout (against the source's
        *current* contact table).
    seed:
        Root seed — workload, timers, mobility and per-link draws all
        derive from it.
    sources:
        Nodes that maintain contact tables and originate queries
        (default all).
    mobility_factory:
        Optional ``(positions, area, rng) -> MobilityModel``; omitted =
        static topology (no staleness, a useful baseline).
    mobility_step:
        Topology update interval (s).
    """

    def __init__(
        self,
        topology: Topology,
        params: CARDParams,
        *,
        link: LinkSpec,
        duration: float = 10.0,
        num_queries: int = 20,
        query_timeout: float = 1.0,
        retries: int = 1,
        seed: Optional[int] = None,
        sources: Optional[Sequence[int]] = None,
        mobility_factory=None,
        mobility_step: float = 0.5,
    ) -> None:
        check_positive("duration", duration)
        check_positive("query_timeout", query_timeout)
        if num_queries < 0:
            raise ValueError("num_queries must be >= 0")
        if num_queries > 0 and topology.num_nodes < 2:
            # a query needs a target other than its source
            raise ValueError("a query workload needs at least 2 nodes")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.topology = topology
        self.params = params
        self.duration = float(duration)
        self.num_queries = int(num_queries)
        self.query_timeout = float(query_timeout)
        self.retries = int(retries)
        self.streams = RngStreams(seed)
        self.sim = Simulator()
        self.network = Network(
            topology, sim=self.sim, link=LinkModel(link, seed=seed)
        )
        self.protocol = CARDProtocol(self.network, params, seed=seed)
        self.sources = (
            list(range(topology.num_nodes))
            if sources is None
            else [int(s) for s in sources]
        )
        self.mobility = (
            None
            if mobility_factory is None
            else mobility_factory(
                topology.positions, topology.area, self.streams.get("mobility")
            )
        )
        self.mobility_step = float(mobility_step)
        # counters
        self.latencies: List[float] = []
        self.successes = 0
        self.failures = 0
        self.zone_hits = 0
        self.timeouts = 0
        self.retries_used = 0
        self.stale_drops = 0
        self.loss_drops = 0
        self.contacts_lost = 0
        self._driver: Optional[MobilityDriver] = None
        #: the run's periodic processes, stopped together at the horizon
        self._procs: List[PeriodicProcess] = []

    # ------------------------------------------------------------------
    # workload generation
    # ------------------------------------------------------------------
    def _workload(self) -> List[Tuple[int, int, float]]:
        """Deterministic (source, target, launch_time) triples.

        Sources are drawn from the maintaining set (a query from a node
        without a contact table could only ever succeed via a zone hit);
        targets are any other node.
        """
        if self.num_queries == 0:
            return []
        rng = self.streams.get("workload")
        n = self.topology.num_nodes
        srcs = [
            int(self.sources[int(i)])
            for i in rng.integers(len(self.sources), size=self.num_queries)
        ]
        pairs: List[Tuple[int, int]] = []
        for s in srcs:
            t = int(rng.integers(n))
            while t == s:
                t = int(rng.integers(n))
            pairs.append((s, t))
        t_lo, t_hi = 0.2 * self.duration, 0.8 * self.duration
        times = np.sort(rng.uniform(t_lo, t_hi, size=self.num_queries))
        return [
            (s, t, float(at)) for (s, t), at in zip(pairs, times)
        ]

    # ------------------------------------------------------------------
    # query state machine (all callbacks run inside the event loop)
    # ------------------------------------------------------------------
    def _launch(self, q: _Query) -> None:
        """(Re)issue ``q`` from its source against the current tables."""
        if q.done:
            return
        if self.protocol.tables.contains(q.source, q.target):
            # intra-zone: proactive routing already knows the target
            self.zone_hits += 1
            self._succeed(q)
            return
        q.timeout_handle = self.sim.schedule(
            self.query_timeout, self._on_timeout, q
        )
        msg = DestinationSearchQuery(
            source=q.source,
            target=q.target,
            depth=self.params.depth,
            query_id=next_query_id(),
        )
        table = self.protocol.table_for(q.source)
        for contact in list(table):
            self._hop(q, msg, list(contact.path), 0, self.params.depth)

    def _hop(
        self,
        q: _Query,
        msg,
        route: List[int],
        idx: int,
        depth: int,
        kind: Optional[MessageKind] = None,
    ) -> None:
        """Forward one copy across ``route[idx] → route[idx + 1]``."""
        if q.done:
            return  # a sibling copy already answered; drop silently
        a, b = int(route[idx]), int(route[idx + 1])
        alive = self.network.are_neighbors(a, b)
        handle = self.network.deliver(
            msg, a, b, self._on_arrive, q, msg, route, idx + 1, depth, kind,
            kind=kind,
        )
        if handle is None:
            if not alive:
                self.stale_drops += 1
            else:
                self.loss_drops += 1

    def _on_arrive(
        self,
        q: _Query,
        msg,
        route: List[int],
        idx: int,
        depth: int,
        kind: Optional[MessageKind],
    ) -> None:
        if q.done:
            return
        if idx < len(route) - 1:
            self._hop(q, msg, route, idx, depth, kind)
            return
        # end of this route
        if isinstance(msg, QueryReply):
            self._succeed(q)
        else:
            self._at_holder(q, msg, route, depth)

    def _at_holder(
        self, q: _Query, msg, route: List[int], depth: int
    ) -> None:
        """The DSQ reached a contact: answer, or recurse one level deeper."""
        holder = int(route[-1])
        if self.protocol.tables.contains(holder, q.target):
            reply = QueryReply(
                source=q.source,
                target=q.target,
                query_id=msg.query_id,
                path=list(route),
            )
            self._hop(q, reply, list(reversed(route)), 0, depth, MessageKind.REPLY)
            return
        if depth <= 1:
            return  # dead end; the timeout will handle it
        # recurse through the holder's *current* contacts (live table —
        # later than the snapshot the query was launched against)
        table = self.protocol.contact_tables.get(holder)
        if table is None:
            return
        for contact in list(table):
            onward = route + list(contact.path[1:])
            self._hop(q, msg, onward, len(route) - 1, depth - 1)

    def _succeed(self, q: _Query) -> None:
        if q.done:
            return
        q.done = True
        self.successes += 1
        self.latencies.append(self.sim.now - q.t0)
        if q.timeout_handle is not None:
            q.timeout_handle.cancel()
            q.timeout_handle = None

    def _on_timeout(self, q: _Query) -> None:
        if q.done:
            return
        self.timeouts += 1
        q.timeout_handle = None
        if q.attempt < self.retries:
            q.attempt += 1
            self.retries_used += 1
            self._launch(q)
            return
        q.done = True
        self.failures += 1

    # ------------------------------------------------------------------
    def _maintain(self, source: int) -> None:
        outcomes, _reselect = self.protocol.maintain(source)
        self.contacts_lost += sum(1 for o in outcomes if not o.ok)

    def _start(self, *, track_deltas: bool = False) -> None:
        """Bootstrap contacts, zero the counters, wire mobility and the
        per-source validation timers (jittered phases)."""
        p = self.params
        with obs.span("bootstrap"):
            self.protocol.bootstrap(self.sources)
        self.network.stats.reset()
        self.network.byte_seconds = 0.0
        if self.mobility is not None:
            self._driver = MobilityDriver(
                self.sim,
                self.topology,
                self.mobility,
                step_interval=self.mobility_step,
                track_deltas=track_deltas,
            )
        self._procs = [
            PeriodicProcess(
                self.sim,
                p.validation_period,
                (lambda s=s: self._maintain(s)),
                jitter=p.validation_jitter,
                rng=self.streams.get("timer", s),
            )
            for s in self.sources
        ]

    def _stop(self) -> None:
        for proc in self._procs:
            proc.stop()
        if self._driver is not None:
            self._driver.stop()

    # ------------------------------------------------------------------
    def run(self) -> DesResult:
        p = self.params
        stats = self.network.stats
        self._start()
        queries = [
            _Query(s, t, at) for s, t, at in self._workload()
        ]
        for q in queries:
            self.sim.schedule_at(q.t0, self._launch, q)
        dispatched_before = self.sim.events_dispatched
        with obs.span("event_dispatch"):
            self.sim.run(until=self.duration)
        self._stop()
        # queries still in flight at the horizon never completed
        for q in queries:
            if not q.done:
                q.done = True
                self.failures += 1
                if q.timeout_handle is not None:
                    q.timeout_handle.cancel()
        if obs.active():
            obs.add("des_events", self.sim.events_dispatched - dispatched_before)
        return DesResult(
            params=p,
            num_nodes=self.network.num_nodes,
            duration=self.duration,
            num_sources=len(self.sources),
            latencies=list(self.latencies),
            queries=len(queries),
            successes=self.successes,
            failures=self.failures,
            zone_hits=self.zone_hits,
            timeouts=self.timeouts,
            retries_used=self.retries_used,
            stale_drops=self.stale_drops,
            loss_drops=self.loss_drops,
            contacts_lost=self.contacts_lost,
            final_contacts=self.protocol.total_contacts(),
            message_totals=stats.snapshot(),
            total_bytes=stats.total_bytes(),
            byte_seconds=float(self.network.byte_seconds),
            events_dispatched=self.sim.events_dispatched - dispatched_before,
        )
