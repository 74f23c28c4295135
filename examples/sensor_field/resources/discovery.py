"""Any-provider resource discovery over CARD's contact structure.

Generalizes the DSQ from "find node T" (§III.C.4) to "find any provider of
resource k".  The mechanics are identical — the query escalates through
contact levels — but each zone lookup asks *is any provider of k within
this neighborhood?* instead of testing a single id, and the reply carries
the chosen provider.  Among multiple providers in one zone the engine picks
the one fewest hops from the inspecting node (nearest-provider anycast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.params import CARDParams
from repro.core.state import ContactTable
from repro.net.messages import DestinationSearchQuery, MessageKind, next_query_id
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables

from resources.registry import ResourceRegistry

__all__ = ["ResourceQueryEngine", "ResourceQueryResult"]


@dataclass
class ResourceQueryResult:
    """Outcome of an any-provider query."""

    source: int
    resource: str
    success: bool
    #: the provider that answered (None on failure)
    provider: Optional[int]
    #: contact level at which a provider was found (0 = own zone)
    depth_found: Optional[int]
    #: forward query transmissions
    msgs: int
    #: full route source→provider when found
    path: Optional[List[int]] = None


class ResourceQueryEngine:
    """Resolves resources (not node ids) through contacts.

    Parameters
    ----------
    network, tables, params, contact_tables:
        Same substrate as :class:`repro.core.query.QueryEngine`.
    registry:
        Ground truth of provider placement, consulted only through
        zone-scoped views (a node can see providers in its own zone).
    """

    def __init__(
        self,
        network: Network,
        tables: NeighborhoodTables,
        params: CARDParams,
        contact_tables: Dict[int, ContactTable],
        registry: ResourceRegistry,
    ) -> None:
        self.network = network
        self.tables = tables
        self.params = params
        self.contact_tables = contact_tables
        self.registry = registry

    # ------------------------------------------------------------------
    def _zone_lookup(self, holder: int, resource: str) -> Optional[int]:
        """Nearest provider of ``resource`` within holder's neighborhood.

        Providers are neighborhood members, so their distances live in the
        radius-bounded band — no all-pairs matrix is ever materialised.
        """
        members = self.tables.members(holder)
        providers = self.registry.providers_in(resource, members)
        if providers.size == 0:
            return None
        hops = self.tables.zone_hops(holder, providers)
        return int(providers[int(np.argmin(hops))])

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        resource: str,
        *,
        max_depth: Optional[int] = None,
    ) -> ResourceQueryResult:
        """Find any provider of ``resource``, escalating D like the DSQ."""
        depth_cap = self.params.depth if max_depth is None else int(max_depth)
        own = self._zone_lookup(source, resource)
        if own is not None:
            path = self.tables.path_within(source, own)
            return ResourceQueryResult(
                source, resource, True, own, 0, 0, path=path
            )
        total = 0
        for d in range(1, depth_cap + 1):
            msg = DestinationSearchQuery(
                source=source, target=-1, depth=d, query_id=next_query_id()
            )
            visited = {source}
            found, msgs = self._probe(source, resource, d, msg, visited, [source])
            total += msgs
            if found is not None:
                provider, path = found
                for hop_tx in reversed(path[1:]):
                    self.network.transmit(msg, int(hop_tx), kind=MessageKind.REPLY)
                return ResourceQueryResult(
                    source, resource, True, provider, d, total, path=path
                )
        return ResourceQueryResult(source, resource, False, None, None, total)

    # ------------------------------------------------------------------
    def _probe(self, holder, resource, depth, msg, visited, prefix):
        table = self.contact_tables.get(holder)
        if table is None or len(table) == 0:
            return None, 0
        msgs = 0
        for contact in table:
            c = contact.node
            if c in visited:
                continue
            visited.add(c)
            msgs += contact.path_hops
            for hop_tx in contact.path[:-1]:
                self.network.transmit(msg, int(hop_tx))
            chain = prefix + contact.path[1:]
            if depth <= 1:
                provider = self._zone_lookup(c, resource)
                if provider is not None:
                    zone = self.tables.path_within(c, provider)
                    assert zone is not None
                    return (provider, chain + zone[1:]), msgs
            else:
                found, sub = self._probe(
                    c, resource, depth - 1, msg, visited, chain
                )
                msgs += sub
                if found is not None:
                    return found, msgs
        return None, msgs
