"""Reference implementations and test doubles the suite checks the
package against.

Each oracle states a rule the package answers some faster way: the
scalar CSQ admission decision behind the selector's batched mask, the
CSQ walk as a Python loop behind the compiled one (``_walk.c``), one
walk built from scratch behind a source-selection's shared context, the
per-source reachability union behind the packed pass, the all-pairs
hop-distance matrix behind the per-level pair counts and the distance
band (:func:`band_matrix` lays the band out for that comparison), the
BFS-tree parent chase behind the routes read off the band, the Tarjan
cycle search behind the layering of the import graph, and a per-record
log behind the aggregate message counters.  Nothing under
``src/`` imports this module; ``card-lint`` CARD-R02 keeps names that
only tests reach out of the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.params import SelectionMethod
from repro.core.selection import ContactSelector, SelectionOutcome, _WalkContext
from repro.mobility.base import MobilityModel
from repro.net.messages import MessageKind
from repro.net.stats import MessageStats
from repro.net.graph import (
    UNREACHABLE,
    _HAVE_SCIPY,
    adjacency_to_csr,
    bfs_hops,
    bfs_tree,
)
from tools.card_lint.importgraph import ImportGraph


# ----------------------------------------------------------------------
# CSQ contact selection (§III.C.2)
# ----------------------------------------------------------------------
def admit(
    selector: ContactSelector,
    candidate: int,
    source: int,
    contact_list: Sequence[int],
    edge_list: Sequence[int],
    d: int,
    rng: np.random.Generator,
) -> bool:
    """Would ``candidate``, at walk distance ``d``, become a contact?

    The paper's per-node admission rule, one membership probe at a time.
    ``ContactSelector._admissible_mask`` answers its overlap half for every
    node at once, and the walk draws from ``rng`` exactly when this does.
    """
    p = selector.params
    member = selector.tables.membership
    # a node that already is a contact can never be re-admitted,
    # independent of any overlap policy (identity dedup)
    if candidate in contact_list:
        return False
    # overlap with the source's neighborhood (always checked)
    if member[candidate, source]:
        return False
    # overlap with already-selected contacts' neighborhoods
    if p.check_contact_overlap and len(contact_list) > 0:
        ids = np.fromiter(contact_list, dtype=np.int64)
        if member[candidate, ids].any():
            return False
    if p.method is SelectionMethod.EM:
        # Edge Method: also require no edge node in the neighborhood,
        # which guarantees true hop distance > 2R (§III.C.2b)
        if p.check_edge_overlap and len(edge_list) > 0:
            ids = np.asarray(edge_list, dtype=np.int64)
            if member[candidate, ids].any():
                return False
        return True
    # Probabilistic Method
    prob = p.admission_probability(d)
    if prob <= 0.0:
        return False
    return bool(rng.random() < prob)


def oracle_walk(
    adj_lists: Sequence[List[int]],
    blocked: bytes,
    seg: Sequence[int],
    r: int,
    cap: Optional[int],
    loop_prevention: bool,
    em: bool,
    pm_prob: Sequence[float],
    rng: np.random.Generator,
) -> Tuple:
    """The CSQ walk (§III.C.1-2 steps 2-5) as the Python loop it was.

    Takes what ``repro.core._walk.Walker`` binds plus what its ``walk``
    takes, and returns what ``walk`` returns: ``(contact, path, forward,
    backtrack, seen, hops, exhausted)``.  The compiled walk must equal it
    field for field and leave ``rng`` in the same state.
    """
    # The DFS stack is two parallel lists: the walk path and, per node, an
    # iterator over its shuffled neighbor order.  Shuffling a copy of the
    # row consumes exactly the draws of ``rng.permutation(adj[u])``.
    path: List[int] = [int(u) for u in seg]
    orders = []
    for u in path:
        o = adj_lists[u][:]
        rng.shuffle(o)
        orders.append(iter(o))
    fwd_tx: List[int] = path[:-1]  # source -> edge (step 1)
    bt_tx: List[int] = []
    visited = bytearray(len(adj_lists))
    for u in path:
        visited[u] = 1
    seen_count = len(path)
    steps = 0
    hops = 0
    contact: Optional[int] = None
    exhausted = False

    while path:
        if cap is not None and steps >= cap:
            break
        node = path[-1]
        d = len(path) - 1  # walk distance of `node` from source
        nxt = -1
        if d < r:  # may advance deeper (step 5 bounds the walk at r)
            if loop_prevention:
                for cand in orders[-1]:
                    if not visited[cand]:
                        nxt = cand
                        break
            else:
                prev = path[-2] if d else -1
                for cand in orders[-1]:
                    if cand != prev:
                        nxt = cand
                        break
        if nxt < 0:
            # stuck: backtrack (step 5)
            path.pop()
            orders.pop()
            if path:
                bt_tx.append(node)
                steps += 1
            continue
        # forward the CSQ to `nxt`
        fwd_tx.append(node)
        steps += 1
        if not visited[nxt]:
            visited[nxt] = 1
            seen_count += 1
        path.append(nxt)
        o = adj_lists[nxt][:]
        rng.shuffle(o)
        orders.append(iter(o))
        hops = d + 1
        # Admission decision at the receiving node (step 3).  The RNG is
        # consumed only under PM, only when every overlap check passed
        # and the admission probability at this depth is positive.
        if not blocked[nxt]:
            if em:
                contact = nxt
                break
            prob = pm_prob[hops]
            if prob > 0.0 and rng.random() < prob:
                contact = nxt
                break
    else:
        # walk backtracked past its origin: region exhausted
        exhausted = True
    route = path if contact is not None else None
    return contact, route, fwd_tx, bt_tx, seen_count, hops, exhausted


def select_one(
    selector: ContactSelector,
    source: int,
    edge_node: int,
    contact_list: Sequence[int],
    rng: np.random.Generator,
) -> SelectionOutcome:
    """Launch one CSQ through ``edge_node`` and walk it to completion,
    with a walk context built from scratch for ``contact_list``."""
    ctx = _WalkContext(selector, source, contact_list)
    return selector._walk(ctx, edge_node, rng)


# ----------------------------------------------------------------------
# reachability (§III.B)
# ----------------------------------------------------------------------
def reachability_percent(
    membership: np.ndarray,
    contacts: Dict[int, Sequence[int]],
    source: int,
    depth: int = 1,
) -> float:
    """Reachability (%) of one source at contact depth ``depth``.

    The single-source definition over dense bool rows; the packed
    ``repro.core.reachability.reachability_all`` must agree with it bit
    for bit.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = membership.shape[0]
    reached = membership[source].copy()
    level = {int(source)}
    seen = {int(source)}
    for _ in range(depth):
        nxt = set()
        for u in level:
            for c in contacts.get(u, ()):
                c = int(c)
                if c not in seen:
                    nxt.add(c)
                    seen.add(c)
        if not nxt:
            break
        rows = membership[np.fromiter(nxt, dtype=np.int64)]
        reached |= rows.any(axis=0)
        level = nxt
    return 100.0 * float(reached.sum()) / n


# ----------------------------------------------------------------------
# hop distances
# ----------------------------------------------------------------------
def hop_distance_matrix(adj: Sequence[np.ndarray]) -> np.ndarray:
    """All-pairs hop distances as an ``(N, N)`` int32 array (−1 unreachable).

    The distance oracle: scipy's unweighted Dijkstra from every node, or
    one BFS per node without scipy.  ``repro.net.graph.hop_level_counts``
    must equal the histogram of its positive entries over the sources'
    rows, and the package's distance views must agree with its entries.
    """
    n = len(adj)
    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    if _HAVE_SCIPY:
        from scipy.sparse.csgraph import shortest_path as sp_shortest_path

        mat = sp_shortest_path(adjacency_to_csr(adj), method="D", unweighted=True)
        dist = np.where(np.isinf(mat), UNREACHABLE, mat).astype(np.int32)
        return dist
    return np.stack([bfs_hops(adj, s) for s in range(n)])


# ----------------------------------------------------------------------
# message accounting
# ----------------------------------------------------------------------
def oracle_path(adj, u: int, v: int, radius: int) -> Optional[List[int]]:
    """Parent chase over the ``radius``-hop BFS tree from ``u``: the
    reference route (the lexicographically smallest shortest path), or
    None when ``v`` lies beyond ``radius``."""
    dist, parent = bfs_tree(adj, u, max_hops=radius)
    if dist[v] == UNREACHABLE:
        return None
    path = [v]
    while path[-1] != u:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def band_matrix(substrate, h: int) -> np.ndarray:
    """The ``(N, N)`` band of ``substrate`` clipped at ``h`` (−1 beyond),
    assembled row by row from its ``members``/``hops_many`` answers."""
    n = substrate.topology.num_nodes
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for u in range(n):
        ids = substrate.members(u, h)
        out[u, ids] = substrate.hops_many(u, ids, h)
    return out


class RecordingStats(MessageStats):
    """:class:`MessageStats` that also logs every transmission.

    ``log`` holds one ``(kind, transmitter, bin, nbytes)`` per hop, in
    recording order (a ``record_many`` call adds one entry per
    transmitter; ``bin`` is None for an untimed record).  The counters
    are an aggregate of this log, so two runs with equal logs as
    multisets have equal totals, bytes and series, and also sent the
    same hops from the same nodes.  Install it as ``network.stats``.
    """

    def __init__(self, num_nodes: int, time_bin: float = 2.0) -> None:
        super().__init__(num_nodes, time_bin)
        self.log: List[Tuple[MessageKind, int, Optional[int], int]] = []

    def _entry(self, kind, transmitter, time, nbytes):
        b = None if time is None else int(time // self.time_bin)
        return (kind, int(transmitter), b, int(nbytes))

    def record(self, kind, transmitter, time=None, nbytes=0) -> None:
        super().record(kind, transmitter, time, nbytes)
        self.log.append(self._entry(kind, transmitter, time, nbytes))

    def record_many(self, kind, transmitters, time=None, nbytes=0) -> None:
        super().record_many(kind, transmitters, time, nbytes)
        self.log.extend(self._entry(kind, tx, time, nbytes) for tx in transmitters)

    def reset(self) -> None:
        super().reset()
        self.log.clear()


# ----------------------------------------------------------------------
# import-graph layering
# ----------------------------------------------------------------------
def toplevel_cycles(graph: ImportGraph) -> List[List[str]]:
    """Module-level import cycles (each a sorted list of dotted names).

    A non-trivial strongly-connected component over the import-time
    edges means a fresh ``import`` of any member can hit a
    partially-initialised module, depending on which side is imported
    first.  Returns ``[]`` for a sound layering.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        # iterative Tarjan: recursion depth must not depend on package size
        work = [(node, iter(_toplevel_neighbors(graph, node)))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, neighbors = work[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(_toplevel_neighbors(graph, nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[current] = min(low[current], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for module in sorted(graph.modules):
        if module not in index:
            strongconnect(module)
    return sccs


def _toplevel_neighbors(graph: ImportGraph, module: str) -> List[str]:
    """Module bodies an import in ``module`` can cause to execute.

    Edges into ``module``'s own ancestor packages are skipped — those
    packages are necessarily already in ``sys.modules`` (partially
    initialised at worst) when ``module``'s body runs, so they cannot
    re-execute.  The same holds for a destination's ancestors that
    ``module`` shares: only packages that first execute *because of*
    this edge count toward a cycle.
    """
    own = set(graph.ancestors(module))
    seen: Set[str] = set()
    out: List[str] = []
    for edge in graph.imports_of(module, include_deferred=False):
        if edge.dst in own:
            continue
        for dst in [edge.dst, *graph.ancestors(edge.dst)]:
            if dst in own or dst == module:
                continue
            if dst not in seen and dst in graph.modules:
                seen.add(dst)
                out.append(dst)
    return out


# ----------------------------------------------------------------------
# mobility
# ----------------------------------------------------------------------
class StaticMobility(MobilityModel):
    """Nobody moves: the ``MobilityDriver`` test double.

    Positions are constant and ``step`` returns them, so one
    ``MobilityDriver`` code path runs static and mobile scenarios.
    """

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError("dt must be >= 0")
        return self.positions
