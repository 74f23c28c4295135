"""Hop-count graph algorithms over adjacency lists.

Everything CARD measures is hop-based: neighborhoods are "nodes within R
hops", contacts live in the ``(2R, r]`` band, Table 1 reports diameter and
mean hop count.  This module provides:

* :func:`bfs_hops` / :func:`bfs_tree` — single-source BFS (vectorized
  frontier expansion) returning hop distances and predecessor trees;
* :func:`bounded_hop_distances` — radius-bounded hop distances from one,
  several, or all sources via boolean sparse frontier products: R sparse
  matmuls instead of all-pairs shortest paths, and an int8/int16 band
  matrix instead of a dense N×N int32 — the substrate kernel behind
  :class:`repro.net.substrate.DistanceSubstrate`;
* :func:`bounded_hop_rows` — the same distances as one flat CSR triple
  ``(indptr, indices, hops)`` holding only the in-horizon entries, built
  without any dense block — the kernel behind the substrate's sparse band;
* :func:`hop_distance_matrix` — all-pairs hop distances, delegated to
  ``scipy.sparse.csgraph`` (C-speed BFS over a CSR matrix) with a pure-Python
  fallback, per the HPC guide's "use compiled code for the hot spot";
* :func:`connected_components`, :func:`graph_stats` — the Table 1 columns.

Adjacency representation: ``list[np.ndarray]`` — ``adj[u]`` is a sorted int
array of u's neighbors.  This is the format produced by
:class:`repro.net.topology.Topology` and shared by all protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

try:  # scipy is optional (the ``fast`` extra): every kernel has a numpy fallback
    from scipy.sparse import csr_matrix

    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without scipy
    _HAVE_SCIPY = False

__all__ = [
    "UNREACHABLE",
    "bfs_hops",
    "bfs_tree",
    "bounded_hop_distances",
    "bounded_hop_rows",
    "hop_distance_matrix",
    "neighborhood_sets",
    "connected_components",
    "graph_stats",
    "GraphStats",
    "PairSampleStats",
    "sample_pair_stats",
    "adjacency_to_csr",
    "csr_to_matrix",
]

#: Marker for "no path" in integer hop-distance arrays.
UNREACHABLE: int = -1


def bfs_hops(adj: Sequence[np.ndarray], source: int, max_hops: Optional[int] = None) -> np.ndarray:
    """Hop distances from ``source`` to every node (−1 if unreachable).

    ``max_hops`` truncates the search at that radius — the common case for
    neighborhood computation, where only nodes within R hops matter.

    The whole frontier is expanded per level (one ``np.concatenate`` over
    the frontier's neighbor arrays + an unvisited mask) instead of
    iterating neighbors one Python ``int`` at a time.
    """
    n = len(adj)
    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    dist[source] = 0
    limit = n if max_hops is None else int(max_hops)
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and depth < limit:
        if frontier.size == 1:
            cand = adj[int(frontier[0])]
        else:
            cand = np.concatenate([adj[int(u)] for u in frontier])
        if cand.size == 0:
            break
        fresh = np.unique(cand[dist[cand] == UNREACHABLE])
        if fresh.size == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = fresh
    return dist


def bfs_tree(
    adj: Sequence[np.ndarray], source: int, max_hops: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`bfs_hops` but also return the BFS predecessor array.

    ``parent[source] == source``; unreachable nodes have ``parent == -1``.
    The predecessor choice is deterministic and matches the historical
    deque BFS exactly: a node's parent is the earliest-discovered frontier
    node adjacent to it (neighbor arrays are sorted, so within one parent
    the discovery order is by ascending id).  Levels are expanded whole —
    the candidate stream ``concat(adj[u] for u in frontier)`` reproduces
    the deque iteration order, and the first occurrence of each new node
    in that stream selects its parent.
    """
    n = len(adj)
    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    limit = n if max_hops is None else int(max_hops)
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and depth < limit:
        if frontier.size == 1:
            cand = adj[int(frontier[0])]
            owners = np.full(cand.shape, frontier[0], dtype=np.int64)
        else:
            parts = [adj[int(u)] for u in frontier]
            cand = np.concatenate(parts)
            owners = np.repeat(frontier, [len(p) for p in parts])
        if cand.size == 0:
            break
        mask = dist[cand] == UNREACHABLE
        cand = cand[mask]
        owners = owners[mask]
        if cand.size == 0:
            break
        # first occurrence of each node in stream order == deque discovery
        fresh, first_idx = np.unique(cand, return_index=True)
        order = np.argsort(first_idx)
        fresh = fresh[order]
        depth += 1
        dist[fresh] = depth
        parent[fresh] = owners[first_idx[order]]
        frontier = fresh
    return dist, parent


def _band_dtype(max_hops: int) -> np.dtype:
    """Smallest signed integer dtype that can hold hop values ≤ ``max_hops``."""
    if max_hops <= np.iinfo(np.int8).max:
        return np.dtype(np.int8)
    if max_hops <= np.iinfo(np.int16).max:  # pragma: no cover - huge radii
        return np.dtype(np.int16)
    return np.dtype(np.int32)  # pragma: no cover - absurd radii


def bounded_hop_distances(
    adj: Sequence[np.ndarray],
    max_hops: int,
    sources: Optional[Sequence[int]] = None,
    *,
    csr: Optional["csr_matrix"] = None,
) -> np.ndarray:
    """Hop distances truncated at ``max_hops``, batched over sources.

    Returns an ``(S, N)`` integer band matrix (int8 for realistic radii):
    ``out[i, v]`` is the hop distance ``sources[i] → v`` when it is at most
    ``max_hops``, else :data:`UNREACHABLE`.  ``sources=None`` means all
    nodes, giving the square band matrix the neighborhood substrate keeps.

    Implementation: frontier expansion by sparse boolean matrix products.
    The frontier of level ``h`` is a sparse ``(S, N)`` indicator; one CSR
    product with the adjacency yields every node adjacent to it, and
    masking out already-reached nodes leaves level ``h+1``.  Total work is
    O(nnz(band) · mean_degree) — for R ≪ diameter this is far below the
    all-pairs cost, and the band matrix is 4× smaller than the dense int32
    matrix :func:`hop_distance_matrix` returns.  ``csr`` lets callers reuse
    a prebuilt adjacency matrix across several calls on one epoch.

    Without scipy the kernel falls back to vectorized per-source BFS —
    identical output, pure numpy.
    """
    n = len(adj)
    if max_hops < 0:
        raise ValueError("max_hops must be >= 0")
    if sources is None:
        src = np.arange(n, dtype=np.int64)
    else:
        src = np.asarray(sources, dtype=np.int64)
    dtype = _band_dtype(max_hops)
    dist = np.full((src.size, n), UNREACHABLE, dtype=dtype)
    if n == 0 or src.size == 0:
        return dist
    dist[np.arange(src.size), src] = 0
    if max_hops == 0:
        return dist
    if not _HAVE_SCIPY:
        for i, u in enumerate(src):  # pragma: no cover - exercised sans scipy
            dist[i] = bfs_hops(adj, int(u), max_hops=max_hops).astype(dtype)
        return dist
    a = adjacency_to_csr(adj) if csr is None else csr
    # int32 counts: a frontier-neighbor count can reach the max degree,
    # which would overflow the int8 CSR data under promotion
    rows = np.arange(src.size, dtype=np.int64)
    frontier = csr_matrix(
        (np.ones(src.size, dtype=np.int32), (rows, src)), shape=(src.size, n)
    )
    for h in range(1, max_hops + 1):
        hit = (frontier @ a).tocoo()
        if hit.nnz == 0:
            break
        new = dist[hit.row, hit.col] == UNREACHABLE
        row, col = hit.row[new], hit.col[new]
        if row.size == 0:
            break
        dist[row, col] = h
        frontier = csr_matrix(
            (np.ones(row.size, dtype=np.int32), (row, col)), shape=(src.size, n)
        )
    return dist


def bounded_hop_rows(
    adj: Sequence[np.ndarray],
    max_hops: int,
    sources: Optional[Sequence[int]] = None,
    *,
    csr: Optional["csr_matrix"] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bounded_hop_distances` as a flat CSR triple, no dense block.

    Returns ``(indptr, indices, hops)``: row ``i`` — the nodes within
    ``max_hops`` ≥ 1 of ``sources[i]``, itself included, ascending — is
    ``indices[indptr[i]:indptr[i + 1]]`` (int64) with their hop distances
    in the same slice of ``hops`` (:func:`_band_dtype`).  ``sources=None``
    means all nodes.  Memory and work are O(entries · mean_degree).

    Implementation: the result grows as one sparse ``(S, N)`` matrix whose
    stored value is ``hop + 1`` (so a stored zero never occurs).  Level
    ``h`` is one boolean product ``frontier @ A`` stamped ``h + 1`` and
    added on: an entry reached earlier then reads above ``h + 1`` and is
    restored, an entry reading exactly ``h + 1`` is new and forms the next
    frontier.  Without scipy the rows come from per-source
    :func:`bfs_hops` — identical output, pure numpy.
    """
    n = len(adj)
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if sources is None:
        src = np.arange(n, dtype=np.int64)
    else:
        src = np.asarray(sources, dtype=np.int64)
    dtype = _band_dtype(max_hops)
    if not _HAVE_SCIPY or src.size == 0:
        indptr = np.zeros(src.size + 1, dtype=np.int64)
        ids, hops = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=dtype)]
        for i, u in enumerate(src):
            row = bfs_hops(adj, int(u), max_hops=max_hops)
            members = np.flatnonzero(row != UNREACHABLE)
            indptr[i + 1] = indptr[i] + members.size
            ids.append(members)
            hops.append(row[members].astype(dtype))
        return indptr, np.concatenate(ids), np.concatenate(hops)
    a = adjacency_to_csr(adj) if csr is None else csr
    # int32 values: a frontier-neighbor count can reach the max degree,
    # and a count wrapping to 0 in int8 would drop the entry
    frontier = (a if sources is None else a[src]).astype(np.int32)
    own = csr_matrix(
        (np.ones(src.size, dtype=np.int32), src, np.arange(src.size + 1)),
        shape=frontier.shape,
    )
    reach = own + frontier * 2
    for stamp in range(3, max_hops + 2):
        hit = frontier @ a
        hit.data[:] = stamp
        reach = reach + hit
        np.subtract(reach.data, stamp, out=reach.data, where=reach.data > stamp)
        new = np.flatnonzero(reach.data == stamp)
        if new.size == 0:
            break
        frontier = csr_matrix(
            (
                np.full(new.size, stamp, dtype=np.int32),
                reach.indices[new],
                np.searchsorted(new, reach.indptr),
            ),
            shape=reach.shape,
        )
    reach.sort_indices()
    return (
        reach.indptr.astype(np.int64),
        reach.indices.astype(np.int64),
        (reach.data - 1).astype(dtype),
    )


def csr_to_matrix(indptr: np.ndarray, indices: np.ndarray) -> "csr_matrix":
    """Wrap CSR ``(indptr, indices)`` arrays as a scipy matrix of unit weights."""
    if not _HAVE_SCIPY:  # pragma: no cover
        raise RuntimeError("scipy is unavailable")
    n = len(indptr) - 1
    data = np.ones(len(indices), dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def adjacency_to_csr(adj: Sequence[np.ndarray]) -> "csr_matrix":
    """Convert adjacency lists to a scipy CSR matrix of unit weights.

    Callers holding a :class:`~repro.net.topology.Topology` should pass its
    stored ``csr`` arrays to :func:`csr_to_matrix` instead of flattening
    the row list again.
    """
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
    indices = (
        np.concatenate(adj).astype(np.int64, copy=False)
        if indptr[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return csr_to_matrix(indptr, indices)


def hop_distance_matrix(adj: Sequence[np.ndarray]) -> np.ndarray:
    """All-pairs hop distances as an ``(N, N)`` int32 array (−1 unreachable).

    The exact kernel for Table 1 and the small-world L: the in-package
    consumers are the exact branches of :func:`graph_stats` and
    :func:`repro.analysis.smallworld.path_length_stats`.  Protocol code
    never materialises the all-pairs matrix — it reads horizon-scoped
    views (:meth:`repro.net.topology.Topology.distance_view`), and large
    graphs sample their global statistics (:func:`sample_pair_stats`).
    Tests also use it as the distance oracle.
    """
    n = len(adj)
    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    if _HAVE_SCIPY:
        # imported here, by its only user: csgraph costs ~0.1 s of process start
        from scipy.sparse.csgraph import shortest_path as sp_shortest_path

        mat = sp_shortest_path(adjacency_to_csr(adj), method="D", unweighted=True)
        dist = np.where(np.isinf(mat), UNREACHABLE, mat).astype(np.int32)
        return dist
    return np.stack([bfs_hops(adj, s) for s in range(n)])


def neighborhood_sets(dist: np.ndarray, radius: int) -> np.ndarray:
    """Boolean membership matrix: ``M[u, v]`` iff v within ``radius`` hops of u.

    Note ``M[u, u]`` is True (a node is in its own neighborhood), matching
    the paper's definition "all nodes within R hops from the source node".
    """
    return (dist >= 0) & (dist <= int(radius))


def connected_components(adj: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Connected components as arrays of node ids, largest first."""
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    comps: List[np.ndarray] = []
    for s in range(n):
        if seen[s]:
            continue
        dist = bfs_hops(adj, s)
        members = np.flatnonzero(dist >= 0)
        seen[members] = True
        comps.append(members)
    comps.sort(key=lambda c: (-len(c), int(c[0]) if len(c) else 0))
    return comps


@dataclass(frozen=True)
class GraphStats:
    """The connectivity statistics reported in the paper's Table 1."""

    num_nodes: int
    num_links: int
    mean_degree: float
    #: hop diameter of the largest connected component
    diameter: int
    #: mean hop distance over connected pairs (largest component)
    mean_hops: float
    #: size of the largest connected component
    giant_size: int
    num_components: int
    #: sampled-estimator extras: None on the exact branch (diameter and
    #: mean_hops are then exact), else the honest interval/uncertainty
    #: (``diameter`` itself carries the lower bound)
    diameter_upper: Optional[int] = None
    mean_hops_se: Optional[float] = None

    def row(self) -> List[object]:
        """Row cells in Table 1 column order (after the scenario columns)."""
        return [
            self.num_links,
            self.mean_degree,
            self.diameter,
            self.mean_hops,
        ]


@dataclass(frozen=True)
class PairSampleStats:
    """Sampled path-length statistics (the no-APSP estimator).

    Produced by :func:`sample_pair_stats`: ``k`` sources are drawn
    without replacement and one full BFS runs per source, so memory is
    O(N) and work O(k·E) — never the O(N²) all-pairs matrix.
    ``mean_hops`` is unbiased over connected (sampled source, node)
    pairs; ``mean_hops_se`` is its standard error over per-source means
    (pairs sharing a source are correlated, so the honest unit of
    replication is the source, not the pair).

    The diameter comes back as an *interval*: ``diameter_lower`` is the
    largest eccentricity observed (including the double-sweep BFS from
    the farthest node seen — the classic lower-bound tightener on
    spatial graphs), and ``diameter_upper = 2·min eccentricity`` over
    every BFS'd source (``diam ≤ 2·ecc(v)`` for any v in the
    component).  ``diameter`` aliases the lower bound for backward
    compatibility.  Both bounds are exact statements about the sampled
    sources' component; when sources span several components only the
    lower bound remains meaningful.
    """

    mean_hops: float
    #: tightest observed lower bound (alias of ``diameter_lower``)
    diameter: int
    num_sources: int
    num_pairs: int
    #: max eccentricity observed (diameter ≥ this)
    diameter_lower: int = 0
    #: 2 × min eccentricity observed (diameter ≤ this)
    diameter_upper: int = 0
    #: standard error of ``mean_hops`` over per-source means
    mean_hops_se: float = 0.0


def sample_pair_stats(
    adj: Sequence[np.ndarray],
    k: int,
    rng: np.random.Generator,
    *,
    population: Optional[np.ndarray] = None,
    double_sweep: bool = True,
) -> PairSampleStats:
    """Estimate mean hop distance and bound the diameter from ``k`` BFS
    sources.

    ``population`` restricts the source draw (e.g. to a connected
    component); distances still run over the whole graph, and only
    connected pairs (distance > 0) enter the statistics.

    ``double_sweep`` (default) runs one extra BFS from the farthest
    node any sampled source observed — the standard double-sweep step
    that usually pins the true diameter's lower bound on spatial
    graphs.  That BFS sharpens ``diameter_lower``/``diameter_upper``
    only; it never enters ``mean_hops`` (a periphery-anchored source
    would bias the mean upward).
    """
    if k < 1:
        raise ValueError("need at least one sampled source")
    pool = (
        np.arange(len(adj), dtype=np.int64)
        if population is None
        else np.asarray(population, dtype=np.int64)
    )
    if pool.size == 0:
        return PairSampleStats(0.0, 0, 0, 0)
    k = min(int(k), int(pool.size))
    sources = pool[rng.choice(pool.size, size=k, replace=False)]
    total = 0
    pairs = 0
    lower = 0
    ecc_min: Optional[int] = None
    far_node: Optional[int] = None
    source_means: List[float] = []
    for s in sources:
        dist = bfs_hops(adj, int(s))
        finite = dist[dist > 0]
        if finite.size:
            total += int(finite.sum())
            pairs += int(finite.size)
            source_means.append(float(finite.mean()))
            ecc = int(finite.max())
            ecc_min = ecc if ecc_min is None else min(ecc_min, ecc)
            if ecc > lower:
                lower = ecc
                far_node = int(np.argmax(dist))  # ties → lowest id
    if double_sweep and far_node is not None:
        # Sweep 2: BFS from the farthest endpoint seen.  Its
        # eccentricity is ≥ the observed max by construction and is
        # very often the true diameter on geometric graphs.
        dist = bfs_hops(adj, far_node)
        finite = dist[dist > 0]
        if finite.size:
            ecc = int(finite.max())
            lower = max(lower, ecc)
            ecc_min = ecc if ecc_min is None else min(ecc_min, ecc)
    upper = max(2 * ecc_min, lower) if ecc_min is not None else 0
    if len(source_means) > 1:
        se = float(np.std(source_means, ddof=1) / np.sqrt(len(source_means)))
    else:
        se = 0.0
    return PairSampleStats(
        mean_hops=(total / pairs) if pairs else 0.0,
        diameter=lower,
        num_sources=k,
        num_pairs=pairs,
        diameter_lower=lower,
        diameter_upper=upper,
        mean_hops_se=se,
    )


def graph_stats(
    adj: Sequence[np.ndarray],
    *,
    pair_sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> GraphStats:
    """Compute :class:`GraphStats` for an adjacency structure.

    Diameter and mean hops follow the paper's Table 1 reading: they are
    taken over the *largest connected component* (several of the paper's
    sparser scenarios — e.g. scenario 3 with mean degree 2.57 — cannot be
    fully connected, yet report a finite diameter).

    ``pair_sample`` switches the path-length statistics to the sampled
    estimator (:func:`sample_pair_stats` over ``pair_sample`` giant-
    component sources) whenever the giant component is larger than the
    sample — the N≫10³ regime where the exact all-pairs matrix would not
    fit.  Small graphs always take the exact branch, so default-scale
    artifacts are byte-identical with or without the knob.

    On the sampled branch ``diameter`` is the double-sweep *lower*
    bound and the stats carry the honest interval: ``diameter_upper``
    (2·min observed eccentricity) and ``mean_hops_se`` (standard error
    over per-source means).  Both are None on the exact branch.
    """
    n = len(adj)
    num_links = sum(len(a) for a in adj) // 2
    mean_degree = (2.0 * num_links / n) if n else 0.0
    comps = connected_components(adj)
    if not comps:
        return GraphStats(0, 0, 0.0, 0, 0.0, 0, 0)
    giant = comps[0]
    if len(giant) < 2:
        return GraphStats(n, num_links, mean_degree, 0, 0.0, len(giant), len(comps))
    diameter_upper: Optional[int] = None
    mean_hops_se: Optional[float] = None
    if pair_sample is not None and len(giant) > int(pair_sample):
        est = sample_pair_stats(
            adj,
            int(pair_sample),
            rng if rng is not None else np.random.default_rng(0),
            population=giant,
        )
        diameter = est.diameter_lower
        mean_hops = est.mean_hops
        diameter_upper = est.diameter_upper
        mean_hops_se = est.mean_hops_se
    else:
        dist = hop_distance_matrix(adj)
        sub = dist[np.ix_(giant, giant)]
        finite = sub[sub > 0]
        diameter = int(finite.max()) if finite.size else 0
        mean_hops = float(finite.mean()) if finite.size else 0.0
    return GraphStats(
        num_nodes=n,
        num_links=num_links,
        mean_degree=mean_degree,
        diameter=diameter,
        mean_hops=mean_hops,
        giant_size=len(giant),
        num_components=len(comps),
        diameter_upper=diameter_upper,
        mean_hops_se=mean_hops_se,
    )
