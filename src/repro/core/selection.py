"""Contact selection: the CSQ depth-first random walk (§III.C.1-2).

Procedure (paper steps 1-6):

1. The source sends a Contact Selection Query through an edge node (we
   route it there along the intra-zone path, counting those hops).
2. The edge node forwards the CSQ to a randomly chosen neighbor.
3. The receiving node decides whether to become a contact — by the
   **Probabilistic Method** (admission probability eq. 1/2 after checking
   overlap with the source and Contact_List) or the **Edge Method**
   (deterministic, additionally checking the Edge_List so that admission
   implies a true hop distance > 2R).
4. A node that declines forwards the query to a randomly chosen neighbor it
   has not been seen by (query/source ids suppress loops).
5. The CSQ walks depth-first up to ``r`` hops from the source and
   **backtracks** when stuck; backtrack hops are accounted separately
   (Figs 4, 12 plot exactly this cost).
6. On admission the walk path becomes the stored source route.

The walk is *exhaustive*: a CSQ that backtracks all the way out of its walk
has visited every node it could reach within the ``r``-step budget.  Under
EM a failed CSQ is strong (though not absolute — the depth at which the
random walk first reaches a node can exceed that node's true distance, so a
re-walk occasionally finds an admissible node a previous walk only touched
too deep) evidence that the contact region is saturated; this saturation is
the mechanism behind the paper's "actual number of contacts chosen is
usually less than NoC" and the reachability plateau of Fig 7.

Loop prevention (§III.C.2b): under EM the CSQ carries query and source
ids, so a node that has already seen the query drops it and the DFS marks
nodes globally visited.  The paper does NOT give PM this mechanism: its
walk only avoids its immediate predecessor, may revisit nodes, and is
bounded by a step cap (a TTL stand-in).  This asymmetry is what makes PM's
backtracking explode in Fig 4.

The walk (steps 2-5) is C: ``_walk.c``, compiled on first import by
:mod:`repro.util.cbuild`.  Its contract is draw for draw: it consumes
exactly the draws of the Python loop kept as ``tests/oracles.py::
oracle_walk`` — per pushed node a Fisher-Yates shuffle of its neighbour
row over numpy's ``random_interval``, as ``Generator.shuffle`` does on a
list, and per PM admission test one ``Generator.random()`` — so contacts,
routes, message counts and the generator's state afterwards equal the
oracle's on every input (a hypothesis property in
``tests/test_properties.py`` checks it on the installed numpy).  There is
no Python fallback: two walks would be two things to keep equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.edge_policy import EdgePolicy, next_edge, order_edges
from repro.core.params import CARDParams, SelectionMethod
from repro.core.state import Contact, ContactTable
from repro.net.messages import ContactSelectionQuery, MessageKind, next_query_id
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.util import cbuild

__all__ = [
    "ContactSelector",
    "BatchedContactSelector",
    "SelectionOutcome",
    "SourceSelectionResult",
]

#: the compiled CSQ walk (``_walk.c``), built on first import
_walk = cbuild.load("repro.core._walk", Path(__file__).with_name("_walk.c"))


@dataclass
class SelectionOutcome:
    """Result of one CSQ walk."""

    #: the admitted contact's id, or None if the walk failed
    contact: Optional[int]
    #: walk path source→contact when successful (the stored source route)
    path: Optional[List[int]]
    #: CSQ forward transmissions (includes the source→edge segment)
    forward_msgs: int
    #: CSQ backtrack transmissions
    backtrack_msgs: int
    #: distinct nodes that saw the query
    nodes_visited: int
    #: True when the walk explored its whole reachable region and gave up
    exhausted: bool

    @property
    def total_msgs(self) -> int:
        return self.forward_msgs + self.backtrack_msgs


@dataclass
class SourceSelectionResult:
    """Result of selecting up to NoC contacts for one source."""

    source: int
    table: ContactTable
    #: CSQ walks launched
    attempts: int
    forward_msgs: int = 0
    backtrack_msgs: int = 0
    #: one mark per contact this selection admitted, in admission order:
    #: the cumulative ``(attempts, forward_msgs, backtrack_msgs)`` right
    #: after that contact was added.  Kept beside the table, not in it —
    #: maintenance rewrites and drops table entries, marks stay as run.
    marks: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def total_msgs(self) -> int:
        return self.forward_msgs + self.backtrack_msgs

    @property
    def num_contacts(self) -> int:
        return len(self.table)

    def prefix(self, noc: int) -> "SourceSelectionResult":
        """The result selection at target NoC = ``noc`` would have
        returned, read off this run (whose target was at least ``noc``).

        Selection at NoC=k is the k-contact prefix of selection at any
        larger NoC (see :meth:`ContactSelector._select_for_source`): the
        first ``noc`` contacts with the counters of the ``noc``-th mark,
        or everything when this run found fewer contacts than ``noc``.
        Only a selection that started from an empty table has a prefix.
        """
        if len(self.marks) != len(self.table):
            raise ValueError(
                "prefix needs a selection that started from an empty table "
                f"({len(self.table)} contacts, {len(self.marks)} marks)"
            )
        if noc > len(self.marks):
            return self
        head = ContactTable(self.source)
        for contact in list(self.table)[:noc]:
            head.add(contact)
        attempts, forward, backtrack = self.marks[noc - 1] if noc else (0, 0, 0)
        return SourceSelectionResult(
            source=self.source,
            table=head,
            attempts=attempts,
            forward_msgs=forward,
            backtrack_msgs=backtrack,
            marks=self.marks[:noc],
        )


class _WalkContext:
    """Working state shared by the CSQ walks of one source-selection.

    Everything a walk needs that depends only on the source and its
    Contact_List lives here, so it is paid once per source-selection
    instead of once per walk: the Edge_List tuple, the compiled
    ``walker`` bound to the current adjacency, and ``blocked``, the
    negation of :meth:`ContactSelector._admissible_mask` for the current
    ``contacts``.  The mask is seeded from that from-scratch definition
    and kept current in place by :meth:`add_contact`, so the walker reads
    it without a copy.
    """

    __slots__ = ("source", "contacts", "edge_list", "blocked", "walker", "_selector")

    def __init__(
        self, selector: "ContactSelector", source: int, contact_list: Sequence[int]
    ) -> None:
        self._selector = selector
        self.source = int(source)
        self.contacts: List[int] = [int(c) for c in contact_list]
        self.edge_list: Tuple[int, ...] = tuple(
            int(e) for e in selector.tables.edge_nodes(source)
        )
        self.blocked: np.ndarray = ~selector._admissible_mask(
            source, self.contacts, self.edge_list
        )
        self.walker = selector._walker()

    def add_contact(self, contact: int) -> None:
        """Fold a newly admitted contact into the Contact_List and mask."""
        sel = self._selector
        if sel.params.check_contact_overlap:
            self.blocked |= np.asarray(sel.tables.membership[contact], dtype=bool)
        self.blocked[contact] = True  # identity dedup
        self.contacts.append(contact)


class ContactSelector:
    """Executes CSQ walks over a network + neighborhood-table pair.

    Parameters
    ----------
    network:
        Connectivity, clock and message accounting.
    tables:
        R-hop neighborhood knowledge (the zone oracle).
    params:
        CARD configuration (method, R, r, NoC, caps).
    """

    def __init__(
        self,
        network: Network,
        tables: NeighborhoodTables,
        params: CARDParams,
    ) -> None:
        if tables.radius != params.R:
            raise ValueError(
                f"neighborhood tables radius {tables.radius} != params.R {params.R}"
            )
        self.network = network
        self.tables = tables
        self.params = params
        # PM admission probability at walk distances 0…r (params are frozen)
        self._pm_prob = tuple(
            params.admission_probability(d) for d in range(params.r + 1)
        )
        # the compiled walk and the CSR it is bound to (see _walker)
        self._bound_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._bound_walker = None

    # ------------------------------------------------------------------
    # admission decision (§III.C.2)
    # ------------------------------------------------------------------
    def _admissible_mask(
        self,
        source: int,
        contact_list: Sequence[int],
        edge_list: Sequence[int],
    ) -> np.ndarray:
        """``mask[c]`` == "would ``c`` pass the admission overlap checks".

        Relies on membership symmetry: ``member[cand, x] == member[x,
        cand]`` (hop distance is symmetric), so the per-candidate probes
        of the paper's admission rule (the scalar ``admit`` oracle in
        ``tests/oracles.py``) collapse into one row gather over
        ``source``, the contact list and (under EM) the edge list.  Under
        PM a True entry still faces the per-depth admission draw.
        """
        p = self.params
        member = self.tables.membership
        ids: List[int] = [int(source)]
        if p.check_contact_overlap:
            ids.extend(int(c) for c in contact_list)
        if p.method is SelectionMethod.EM and p.check_edge_overlap:
            ids.extend(int(e) for e in edge_list)
        rows = np.asarray(member[np.asarray(ids, dtype=np.int64)], dtype=bool)
        mask = ~rows.any(axis=0)
        if len(contact_list) > 0:
            # identity dedup: an existing contact is never re-admitted,
            # independent of any overlap policy
            mask[np.fromiter(contact_list, dtype=np.int64)] = False
        return mask

    # ------------------------------------------------------------------
    # one CSQ walk
    # ------------------------------------------------------------------
    def _walker(self):
        """The compiled walk bound to the topology's current CSR.

        Bound once per adjacency epoch (a rebuild makes a new ``csr``
        tuple), never per walk: the CSR pointers, the walk parameters and
        the scratch buffers live in the ``Walker``.
        """
        csr = self.network.topology.csr
        if self._bound_csr is not csr:
            p = self.params
            self._bound_walker = _walk.Walker(
                *csr,
                p.r,
                p.effective_max_walk_steps,
                p.effective_loop_prevention,
                p.method is SelectionMethod.EM,
                self._pm_prob,
            )
            self._bound_csr = csr
        return self._bound_walker

    def _walk(
        self, ctx: _WalkContext, edge_node: int, rng: np.random.Generator
    ) -> SelectionOutcome:
        """The one CSQ walk; ``ctx`` holds what the source's walks share.

        The walk itself (steps 2-5) runs in ``_walk.c``; this wraps it in
        the CSQ message and its accounting.  Hop transmitters come back
        per category and are accounted in one bulk flush each: the clock
        does not advance inside a synchronous walk and the CSQ's wire size
        is fixed at launch, so the counters equal one ``transmit()`` per
        hop.
        """
        net = self.network
        is_em = self.params.method is SelectionMethod.EM
        msg = ContactSelectionQuery(
            source=ctx.source,
            query_id=next_query_id(),
            contact_list=tuple(ctx.contacts),
            edge_list=ctx.edge_list if is_em else None,
        )
        seg = self.tables.path_within(ctx.source, edge_node)
        if seg is None:
            return SelectionOutcome(None, None, 0, 0, 0, exhausted=False)
        contact, route, fwd_tx, bt_tx, seen, hops, exhausted = ctx.walker.walk(
            ctx.blocked, seg, rng.bit_generator.capsule
        )
        msg.hop_count = hops
        net.transmit_path(msg, fwd_tx)
        net.transmit_path(msg, bt_tx, kind=MessageKind.BACKTRACK)
        if route is not None:
            # the path reply travels back to the source (step 6);
            # REPLY traffic is accounted but excluded from the paper's
            # selection-overhead category.
            net.transmit_path(msg, route[:0:-1], kind=MessageKind.REPLY)
        return SelectionOutcome(
            contact, route, len(fwd_tx), len(bt_tx), seen, exhausted=exhausted
        )

    # ------------------------------------------------------------------
    # full selection for one source
    # ------------------------------------------------------------------
    def select_contacts(
        self,
        source: int,
        rng: np.random.Generator,
        *,
        table: Optional[ContactTable] = None,
        noc: Optional[int] = None,
        now: float = 0.0,
    ) -> SourceSelectionResult:
        """Select up to ``noc`` contacts for ``source`` (§III.C.1).

        CSQs are launched through the source's edge nodes round-robin (in a
        random order), one at a time; selection stops when the target NoC
        is reached, when there are no edge nodes, or after
        ``params.max_failed_queries`` consecutive exhausted walks (the
        region is saturated — more contacts cannot exist without overlap).
        """
        return self._select_for_source(source, rng, table, noc, now)

    def select_contacts_many(
        self,
        sources: Sequence[int],
        rngs: Mapping[int, np.random.Generator],
        *,
        tables: Optional[Mapping[int, ContactTable]] = None,
        noc: Optional[int] = None,
        now: float = 0.0,
    ) -> Dict[int, SourceSelectionResult]:
        """:meth:`select_contacts` for every source in ``sources``.

        ``rngs`` maps each source to its dedicated generator (the
        protocol's ``("select", s)`` streams), so a source's outcome does
        not depend on which other sources run or in what order.  Results
        are keyed in ``sources`` order.
        """
        with obs.span("walk_batch"):
            return {
                s: self._select_for_source(
                    s, rngs[s], None if tables is None else tables.get(s), noc, now
                )
                for s in map(int, sources)
            }

    def _select_for_source(
        self,
        source: int,
        rng: np.random.Generator,
        table: Optional[ContactTable],
        noc: Optional[int],
        now: float,
    ) -> SourceSelectionResult:
        """The per-source routine behind both public entry points.

        Kept apart so bootstrap does not re-enter :meth:`select_contacts`,
        whose calls the ledger counts as maintenance re-selections.

        **Invariant:** selection at NoC=k is, walk by walk, the k-contact
        prefix of selection at any NoC=K > k.  The target is read only by
        the loop's stopping test: every draw (the edge order, each walk's
        shuffles and PM admissions) comes from ``rng`` in the same order
        whatever the target, so the K run makes exactly the k run's walks
        until its k-th admission, then carries on.  Each admission records
        a mark (:attr:`SourceSelectionResult.marks`) from which
        :meth:`SourceSelectionResult.prefix` reads the k run back.
        ``tests/test_properties.py::TestSelectionPrefixProperty`` pins it.
        """
        p = self.params
        target = p.noc if noc is None else int(noc)
        table = ContactTable(source) if table is None else table
        result = SourceSelectionResult(source=source, table=table, attempts=0)
        if target <= len(table):
            return result
        ctx = _WalkContext(self, source, table.ids())
        if not ctx.edge_list:
            return result
        policy = p.edge_policy if p.edge_policy is not None else EdgePolicy.RANDOM
        ordered = order_edges(policy, ctx.edge_list, self.tables, rng)
        productive: List[int] = []  # edges whose CSQ yielded a contact
        attempt = 0
        failures = 0
        while len(table) < target and failures < p.max_failed_queries:
            edge = next_edge(policy, ordered, attempt, productive, self.tables)
            assert edge is not None
            attempt += 1
            outcome = self._walk(ctx, edge, rng)
            result.attempts += 1
            result.forward_msgs += outcome.forward_msgs
            result.backtrack_msgs += outcome.backtrack_msgs
            if outcome.contact is not None and outcome.path is not None:
                table.add(Contact(outcome.contact, outcome.path, selected_at=now))
                result.marks.append(
                    (result.attempts, result.forward_msgs, result.backtrack_msgs)
                )
                ctx.add_contact(outcome.contact)
                productive.append(edge)
                failures = 0
            else:
                # Exhausted and step-capped walks both count as failures;
                # under EM an exhausted walk is near-conclusive evidence of
                # saturation, so max_failed_queries stays small.
                failures += 1
        return result


# The ledger (benchmarks/ledger/_tracer.py) times bootstrap through
# ``BatchedContactSelector.select_contacts_many``; the name stays as an
# alias of the one selector class.
BatchedContactSelector = ContactSelector
