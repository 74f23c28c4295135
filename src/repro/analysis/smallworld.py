"""Small-world statistics of the physical network and CARD's overlay.

Watts & Strogatz characterize small worlds by a high clustering
coefficient together with a short characteristic path length.  Spatial
unit-disk graphs are highly clustered but have *long* path lengths
(distance grows like the square root of area) — exactly the regime where a
few random shortcuts collapse the diameter.  CARD's contacts are those
shortcuts; the functions here quantify how far they push the network
toward a small world.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import ContactTable
from repro.net import graph as g

__all__ = [
    "clustering_coefficient",
    "characteristic_path_length",
    "path_length_stats",
    "contact_graph",
    "degrees_of_separation",
    "smallworld_report",
    "SmallWorldReport",
]


def clustering_coefficient(adj: Sequence[np.ndarray]) -> float:
    """Mean local clustering coefficient (Watts-Strogatz definition).

    For each node with degree ≥ 2: the fraction of its neighbor pairs that
    are themselves linked; nodes with degree < 2 contribute 0 (the common
    convention that keeps the statistic defined on sparse graphs).
    """
    n = len(adj)
    if n == 0:
        return 0.0
    neighbor_sets = [set(int(v) for v in nbrs) for nbrs in adj]
    total = 0.0
    for u in range(n):
        nbrs = adj[u]
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        for i in range(k):
            vi = int(nbrs[i])
            si = neighbor_sets[vi]
            for j in range(i + 1, k):
                if int(nbrs[j]) in si:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / n


def path_length_stats(
    adj: Sequence[np.ndarray],
    *,
    pair_sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, Optional[float]]:
    """The Watts-Strogatz L with its honest uncertainty: ``(L, se)``.

    On the exact branch (small graphs, or ``pair_sample=None``) the
    standard error is None — L is not an estimate.  On the sampled
    branch it is the standard error over per-source BFS means
    (:attr:`repro.net.graph.PairSampleStats.mean_hops_se`), the right
    replication unit because pairs sharing a source are correlated.
    """
    n = len(adj)
    if pair_sample is not None and n > int(pair_sample):
        est = g.sample_pair_stats(
            adj,
            int(pair_sample),
            rng if rng is not None else np.random.default_rng(0),
        )
        return float(est.mean_hops), float(est.mean_hops_se)
    counts = g.hop_level_counts(*g._csr_arrays(adj), np.arange(n))
    if not counts:
        return 0.0, None
    return float(sum(k * c for k, c in enumerate(counts, 1))) / sum(counts), None


def characteristic_path_length(
    adj: Sequence[np.ndarray],
    *,
    pair_sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean hop distance over connected pairs (the Watts-Strogatz L).

    ``pair_sample`` switches to the sampled no-APSP estimator
    (:func:`repro.net.graph.sample_pair_stats` over that many BFS
    sources) once the graph outgrows the sample — the N≫10³ regime where
    the exact all-pairs matrix would not fit.  Small graphs always take
    the exact branch, keeping default-scale artifacts byte-identical.
    Use :func:`path_length_stats` when the sampling uncertainty matters.
    """
    return path_length_stats(adj, pair_sample=pair_sample, rng=rng)[0]


def contact_graph(
    contact_tables: Dict[int, ContactTable], num_nodes: int
) -> List[np.ndarray]:
    """The contact overlay as an undirected adjacency structure.

    Nodes are physical nodes; an edge (u, c) exists when c is a contact of
    u.  Contacts are directed in the protocol (u stores the route), but
    reachability through them is effectively bidirectional once the reply
    has installed the reverse route, so the overlay is symmetrized.
    """
    buckets: List[set] = [set() for _ in range(num_nodes)]
    for u, table in contact_tables.items():
        for c in table.ids():
            buckets[int(u)].add(int(c))
            buckets[int(c)].add(int(u))
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


def degrees_of_separation(
    membership: np.ndarray,
    contact_tables: Dict[int, ContactTable],
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Contact-level distance from each source to every node.

    Level 0: the source's own zone (free, proactive knowledge).  Level k:
    nodes in the zones of k-th level contacts.  −1 marks nodes unreachable
    through the structure at any depth.  This is the "degrees of
    separation" the paper says contacts reduce (§I) — a BFS over zones
    linked by contact edges.

    Returns an ``(S, N)`` int array for the given sources (default all).
    """
    n = membership.shape[0]
    srcs = list(range(n)) if sources is None else [int(s) for s in sources]
    out = np.full((len(srcs), n), -1, dtype=np.int32)
    for row, s in enumerate(srcs):
        level = 0
        frontier = [s]
        seen_holders = {s}
        reached = out[row]
        while frontier:
            zone_mask = membership[np.asarray(frontier, dtype=np.int64)].any(axis=0)
            newly = zone_mask & (reached < 0)
            reached[newly] = level
            nxt = []
            for holder in frontier:
                table = contact_tables.get(holder)
                if table is None:
                    continue
                for c in table.ids():
                    if c not in seen_holders:
                        seen_holders.add(c)
                        nxt.append(int(c))
            frontier = nxt
            level += 1
        out[row] = reached
    return out


@dataclass(frozen=True)
class SmallWorldReport:
    """Side-by-side small-world statistics for one CARD deployment."""

    #: Watts-Strogatz C of the physical unit-disk graph
    clustering: float
    #: Watts-Strogatz L of the physical graph (hop metric)
    path_length: float
    #: mean hop distance if every contact edge were a one-hop wormhole
    augmented_path_length: float
    #: mean contact levels needed to cover reachable nodes (zone hops free)
    mean_separation: float
    #: fraction of (source, node) pairs covered by the structure at any level
    coverage: float
    #: standard errors of the two path lengths when they came from the
    #: sampled estimator; None when they are exact
    path_length_se: Optional[float] = None
    augmented_path_length_se: Optional[float] = None

    @property
    def shortcut_gain(self) -> float:
        """Path-length contraction factor from adding contacts."""
        if self.augmented_path_length <= 0:
            return 1.0
        return self.path_length / self.augmented_path_length


def smallworld_report(
    adj: Sequence[np.ndarray],
    membership: np.ndarray,
    contact_tables: Dict[int, ContactTable],
    sources: Optional[Sequence[int]] = None,
    *,
    pair_sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SmallWorldReport:
    """Compute a :class:`SmallWorldReport` for a bootstrapped protocol.

    The *augmented* graph adds every contact pair as a direct edge to the
    physical adjacency — the idealized "short cut" reading of [13] — and
    re-measures the characteristic path length on it.  ``pair_sample``
    threads through to both path-length measurements (the sampled
    no-APSP estimator for N≫10³ graphs).
    """
    n = len(adj)
    overlay = contact_graph(contact_tables, n)
    augmented = [
        np.array(sorted(set(int(v) for v in adj[u]) | set(int(v) for v in overlay[u])),
                 dtype=np.int64)
        for u in range(n)
    ]
    sep = degrees_of_separation(membership, contact_tables, sources)
    covered = sep >= 0
    mean_sep = float(sep[covered].mean()) if covered.any() else 0.0
    length, length_se = path_length_stats(adj, pair_sample=pair_sample, rng=rng)
    aug_length, aug_se = path_length_stats(
        augmented, pair_sample=pair_sample, rng=rng
    )
    return SmallWorldReport(
        clustering=clustering_coefficient(adj),
        path_length=length,
        augmented_path_length=aug_length,
        mean_separation=mean_sep,
        coverage=float(covered.mean()),
        path_length_se=length_se,
        augmented_path_length_se=aug_se,
    )
