"""Resource querying: the Destination Search Query (§III.C.4).

A source looking for target ``T``:

1. checks its own neighborhood routing table (free — the proactive scheme
   already paid for that knowledge);
2. failing that, sends a DSQ with ``D=1`` to its contacts *one at a time*;
   each contact looks ``T`` up in its neighborhood and replies on a hit;
3. failing that, escalates with ``D=2``: first-level contacts decrement
   ``D`` and forward the DSQ to *their* contacts, and so on — a tree of
   contact levels probed like an expanding ring search, but along unicast
   contact routes instead of TTL-bounded floods.

Traffic accounting: every hop of a DSQ along a stored contact route is one
``QUERY`` control message.  Replies travel back for free in the paper's
accounting (control-message figures count querying traffic; we track reply
hops separately so the choice is explicit and reversible).

Duplicate suppression: query ids let a contact recognize a DSQ it has
already served (the paper's CSQ uses the same mechanism); by default we do
not re-forward to a contact that has already been queried at an equal or
deeper remaining depth.  The ablation bench can disable dedup to measure
its benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.params import CARDParams
from repro.core.state import ContactTable
from repro.net.messages import DestinationSearchQuery, MessageKind, next_query_id
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["QueryEngine", "QueryResult"]


@dataclass
class QueryResult:
    """Outcome of a resource-discovery query."""

    source: int
    target: int
    success: bool
    #: contact level at which the target was found (0 = own neighborhood);
    #: None on failure
    depth_found: Optional[int]
    #: DSQ forward transmissions (the paper's querying traffic)
    msgs: int
    #: reply transmissions (tracked separately, excluded from `msgs`)
    reply_msgs: int
    #: contacts that performed a lookup
    contacts_queried: int
    #: full discovered route source→target (contact-route chain + zone path)
    path: Optional[List[int]] = None


class _QueryFabric:
    """Every contact table flattened into one CSR-style structure.

    ``ptr[h]:ptr[h+1]`` delimits holder ``h``'s contact level inside the
    flat ``ids``/``entries`` columns (table order preserved), and
    ``txptr[i]:txptr[i+1]`` delimits contact ``i``'s stored-route
    transmitter list (``path[:-1]``) inside the flat ``tx`` hop list.  A
    whole contiguous run of routes — the common all-miss level — joins
    the query's transmitter list (flushed once into
    :meth:`~repro.net.network.Network.transmit_path`) as one slice, and
    its message count is a single ``txptr`` difference.

    Built in one pass over all tables and cached on the engine until any
    :attr:`ContactTable.version` changes, so random query workloads that
    rarely revisit a holder still amortize the freeze cost.
    """

    __slots__ = ("ptr", "ids", "entries", "txptr", "tx")

    def __init__(
        self, num_nodes: int, tables: Dict[int, ContactTable]
    ) -> None:
        ptr = [0] * (num_nodes + 1)
        entries: List = []
        get = tables.get
        for h in range(num_nodes):
            table = get(h)
            if table is not None and len(table):
                entries.extend(table)
            ptr[h + 1] = len(entries)
        txptr = [0] * (len(entries) + 1)
        tx: List[int] = []
        for i, c in enumerate(entries):
            tx.extend(c.path[:-1])
            txptr[i + 1] = len(tx)
        self.ptr = ptr
        self.ids = [c.node for c in entries]
        self.entries = entries
        self.txptr = txptr
        self.tx = tx


class QueryEngine:
    """Runs DSQs over the contact structure built by selection/maintenance.

    Parameters
    ----------
    network, tables, params:
        The usual substrate triple.
    contact_tables:
        ``node id → ContactTable`` for every node that owns contacts; the
        engine follows these tables when forwarding at depth ≥ 2.
    dedup:
        Suppress re-forwarding to contacts already queried within one
        escalation round (default True).
    """

    def __init__(
        self,
        network: Network,
        tables: NeighborhoodTables,
        params: CARDParams,
        contact_tables: Dict[int, ContactTable],
        *,
        dedup: bool = True,
    ) -> None:
        self.network = network
        self.tables = tables
        self.params = params
        self.contact_tables = contact_tables
        self.dedup = dedup
        #: flattened contact tables + the epoch they were frozen at;
        #: revalidated against ContactTable.version sums per query_many
        self._fabric: Optional[_QueryFabric] = None
        self._fabric_key: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        *,
        max_depth: Optional[int] = None,
    ) -> QueryResult:
        """Find ``target`` from ``source``, escalating D up to ``max_depth``.

        Escalation mirrors the paper: a fresh DSQ is issued with D=1, then
        D=2, ... — traffic of failed rounds accumulates into the final
        count (exactly like expanding ring search re-floods).  One pair
        resolved by the same routine :meth:`query_many` loops over.
        """
        return self._resolve(
            int(source),
            int(target),
            max_depth,
            self._current_fabric(),
            bytearray(self.network.num_nodes),
        )

    # ------------------------------------------------------------------
    def query_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        *,
        max_depth: Optional[int] = None,
    ) -> List[QueryResult]:
        """Resolve a workload of ``(source, target)`` pairs, batched.

        Equal to ``[query(s, t) for s, t in pairs]`` — same
        :class:`QueryResult` fields, same message accounting, same
        escalation — with the fabric checked and the visited scratch
        allocated once for the whole workload.  An entire contact level
        is probed against the target's dense membership row (hop distance
        is symmetric, so "target in contact's zone" = "contact in
        target's zone"), visited marks live in one reused scratch array,
        and QUERY and REPLY traffic are each flushed once per query through
        :meth:`~repro.net.network.Network.transmit_path` instead of one
        Python call per hop.  All contact tables are frozen into one
        :class:`_QueryFabric` that persists across calls and is rebuilt
        only when a table's version changes.
        """
        with obs.span("query_batch"):
            fabric = self._current_fabric()
            visited = bytearray(self.network.num_nodes)
            results: List[QueryResult] = []
            for s, t in pairs:
                results.append(
                    self._resolve(int(s), int(t), max_depth, fabric, visited)
                )
            return results

    def _current_fabric(self) -> _QueryFabric:
        """The frozen contact-table view, rebuilt on any table mutation.

        The epoch key is the number of tables plus the sum of their
        version counters — versions only ever increase, so any add,
        remove or in-place route rewrite anywhere strictly changes it.
        """
        tables = self.contact_tables
        epoch = 0
        for t in tables.values():
            epoch += t.version
        key = (len(tables), epoch)
        if self._fabric is None or self._fabric_key != key:
            self._fabric = _QueryFabric(self.network.num_nodes, tables)
            self._fabric_key = key
        return self._fabric

    def _resolve(
        self,
        source: int,
        target: int,
        max_depth: Optional[int],
        fabric: _QueryFabric,
        visited: bytearray,
    ) -> QueryResult:
        """One pair over ``fabric``; ``visited`` is all-zero scratch and is
        handed back all-zero."""
        depth_cap = self.params.depth if max_depth is None else int(max_depth)
        if target == source or self.tables.contains(source, target):
            path = self.tables.path_within(source, target)
            return QueryResult(source, target, True, 0, 0, 0, 0, path=path)
        # hop distance is symmetric, so the target's membership row answers
        # "is the target inside contact c's zone" for every c — densified
        # once per query, each level probe is a plain scalar lookup
        trow = np.asarray(self.tables.membership[target], dtype=bool)
        total_msgs = 0
        total_contacts = 0
        # every round's hops share kind, clock and the DSQ's fixed wire
        # size, so the whole escalation flushes its QUERY hops once
        tx_out: List[int] = []
        for d in range(1, depth_cap + 1):
            msg = DestinationSearchQuery(
                source=source, target=target, depth=d, query_id=next_query_id()
            )
            #: marks to undo after the round
            touched: List[int] = []
            if self.dedup:
                visited[source] = 1
                touched.append(source)
            found, msgs, contacts = self._probe_level(
                source, target, d, trow, visited, touched, tx_out, [source],
                fabric,
            )
            for t in touched:
                visited[t] = 0
            total_msgs += msgs
            total_contacts += contacts
            if found is not None:
                self.network.transmit_path(msg, tx_out)
                reply = len(found) - 1
                self.network.transmit_path(
                    msg, list(reversed(found[1:])), kind=MessageKind.REPLY
                )
                return QueryResult(
                    source,
                    target,
                    True,
                    d,
                    total_msgs,
                    reply,
                    total_contacts,
                    path=found,
                )
        if tx_out:  # non-empty only if some round ran and set `msg`
            self.network.transmit_path(msg, tx_out)
        return QueryResult(
            source, target, False, None, total_msgs, 0, total_contacts
        )

    def _hit_path(self, contact, prefix: List[int], target: int) -> List[int]:
        """Contact-route chain + zone path for the level-D contact that hit."""
        chain = prefix + contact.path[1:]
        zone = self.tables.path_within(contact.node, target)
        assert zone is not None
        return chain + zone[1:]

    def _probe_level(
        self,
        holder: int,
        target: int,
        depth: int,
        trow: np.ndarray,
        visited: bytearray,
        touched: List[int],
        tx_out: List[int],
        prefix: List[int],
        fabric: _QueryFabric,
    ):
        """Forward the DSQ from ``holder`` to its contacts over the fabric.

        A leaf level (``depth <= 1``) resolves each contact with a scalar
        lookup in the target's dense membership row, and flushes stored
        routes in contiguous runs — an untouched all-miss level (the
        common case) costs one slice extend and one ``txptr`` difference.
        Returns ``(full_path_or_None, msgs, contacts_queried)``.
        """
        ptr = fabric.ptr
        i0 = ptr[holder]
        i1 = ptr[holder + 1]
        if i0 == i1:
            return None, 0, 0
        ids = fabric.ids
        txptr = fabric.txptr
        tx = fabric.tx
        dedup = self.dedup
        msgs = 0
        contacts = 0
        if depth <= 1:
            # run-flush: `start` marks the first contact whose route has
            # not been emitted yet; dedup skips close the current run
            start = i0
            for i in range(i0, i1):
                c = ids[i]
                if dedup:
                    if visited[c]:
                        if start < i:
                            a, b = txptr[start], txptr[i]
                            tx_out.extend(tx[a:b])
                            msgs += b - a
                        start = i + 1
                        continue
                    visited[c] = 1
                    touched.append(c)
                contacts += 1
                if trow[c]:
                    a, b = txptr[start], txptr[i + 1]
                    tx_out.extend(tx[a:b])
                    msgs += b - a
                    return (
                        self._hit_path(fabric.entries[i], prefix, target),
                        msgs,
                        contacts,
                    )
            if start < i1:
                a, b = txptr[start], txptr[i1]
                tx_out.extend(tx[a:b])
                msgs += b - a
            return None, msgs, contacts
        entries = fabric.entries
        for i in range(i0, i1):
            c = ids[i]
            if dedup:
                # recursion below may visit c between loop iterations
                if visited[c]:
                    continue
                visited[c] = 1
                touched.append(c)
            a, b = txptr[i], txptr[i + 1]
            tx_out.extend(tx[a:b])
            msgs += b - a
            entry = entries[i]
            chain = prefix + entry.path[1:]
            contacts += 1
            found, sub_msgs, sub_contacts = self._probe_level(
                c, target, depth - 1, trow, visited, touched, tx_out, chain,
                fabric,
            )
            msgs += sub_msgs
            contacts += sub_contacts
            if found is not None:
                return found, msgs, contacts
        return None, msgs, contacts
