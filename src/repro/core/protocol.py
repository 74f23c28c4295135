"""`CARDProtocol` — the public façade tying all CARD machinery together.

A protocol instance owns, for one network:

* the neighborhood tables (proactive zone knowledge),
* a per-node :class:`~repro.core.state.ContactTable`,
* the selector, maintainer and query engine,
* a deterministic RNG stream per (source, purpose).

Typical use::

    net = Network(Topology.uniform_random(500, (710, 710), 50.0, rng))
    card = CARDProtocol(net, CARDParams(R=3, r=10, noc=5), seed=7)
    card.bootstrap()                      # select contacts everywhere
    res = card.query(12, 404)             # find node 404 from node 12
    card.maintain(12)                     # one validation+replenish round

Snapshot experiments call :meth:`bootstrap` once; the time-series runner
wires :meth:`maintain` to per-node periodic timers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.maintenance import ContactMaintainer, ValidationOutcome
from repro.core.params import CARDParams
from repro.core.query import QueryEngine, QueryResult
from repro.core.reachability import contact_ids_map, reachability_all
from repro.core.selection import ContactSelector, SourceSelectionResult
from repro.core.state import ContactTable
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.util.rng import RngStreams

__all__ = ["CARDProtocol"]


class CARDProtocol:
    """All CARD state and operations for one network.

    Parameters
    ----------
    network:
        Substrate (topology + clock + stats).
    params:
        Protocol configuration.
    seed:
        Root seed for all protocol randomness (walk shuffles, PM draws).
    """

    def __init__(
        self,
        network: Network,
        params: CARDParams,
        *,
        seed: Optional[int] = None,
    ) -> None:
        self.network = network
        self.params = params
        self.streams = RngStreams(seed)
        self.tables = NeighborhoodTables(network.topology, params.R)
        self.selector = ContactSelector(network, self.tables, params)
        self.maintainer = ContactMaintainer(network, self.tables, params)
        self.contact_tables: Dict[int, ContactTable] = {}
        self.query_engine = QueryEngine(
            network, self.tables, params, self.contact_tables
        )

    # ------------------------------------------------------------------
    # contact lifecycle
    # ------------------------------------------------------------------
    def table_for(self, source: int) -> ContactTable:
        """The (lazily created) contact table of ``source``."""
        table = self.contact_tables.get(source)
        if table is None:
            table = ContactTable(source)
            self.contact_tables[source] = table
        return table

    def bootstrap(
        self, sources: Optional[Sequence[int]] = None
    ) -> Dict[int, SourceSelectionResult]:
        """Run initial contact selection for every source (or a subset).

        Each source draws from its own ``("select", s)`` stream, so its
        result does not depend on which other sources are bootstrapped
        or in what order.
        """
        srcs = [
            int(s)
            for s in (
                range(self.network.num_nodes) if sources is None else sources
            )
        ]
        rngs = {s: self.streams.get("select", s) for s in srcs}
        tables = {s: self.table_for(s) for s in srcs}
        return self.selector.select_contacts_many(
            srcs, rngs, tables=tables, now=self.network.sim.now
        )

    def maintain(
        self, source: int
    ) -> Tuple[List[ValidationOutcome], Optional[SourceSelectionResult]]:
        """One §III.C.3 round for ``source``: validate all, replenish lost.

        Returns the validation outcomes and the re-selection result (None
        when the table was already full).
        """
        table = self.table_for(source)
        outcomes = self.maintainer.validate_all(table)
        reselect: Optional[SourceSelectionResult] = None
        if len(table) < self.params.noc:
            rng = self.streams.get("select", source)
            reselect = self.selector.select_contacts(
                source, rng, table=table, now=self.network.sim.now
            )
        return outcomes, reselect

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self, source: int, target: int, *, max_depth: Optional[int] = None
    ) -> QueryResult:
        """Resolve ``target`` from ``source`` (see :class:`QueryEngine`)."""
        return self.query_engine.query(int(source), int(target), max_depth=max_depth)

    def query_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        *,
        max_depth: Optional[int] = None,
    ) -> List[QueryResult]:
        """Batched :meth:`query` over a workload of (source, target) pairs."""
        return self.query_engine.query_many(
            [(int(s), int(t)) for s, t in pairs], max_depth=max_depth
        )

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    @property
    def membership(self) -> np.ndarray:
        return self.tables.membership

    def total_contacts(self) -> int:
        """Sum of contact-table sizes (the Fig 13 'total contacts' series)."""
        return sum(len(t) for t in self.contact_tables.values())

    def reachability(
        self,
        sources: Optional[Sequence[int]] = None,
        *,
        depth: Optional[int] = None,
        noc: Optional[int] = None,
    ) -> np.ndarray:
        """Per-source reachability (%) at depth ``depth`` (default D),
        counting only each table's first ``noc`` contacts when given."""
        d = self.params.depth if depth is None else int(depth)
        contacts = contact_ids_map(self.contact_tables)
        if noc is not None:
            contacts = {s: ids[:noc] for s, ids in contacts.items()}
        return reachability_all(self.membership, contacts, sources, d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CARDProtocol(N={self.network.num_nodes}, {self.params.describe()}, "
            f"tables={len(self.contact_tables)})"
        )
