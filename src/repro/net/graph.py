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
* :func:`hop_level_counts` — the number of (source, node) pairs at each
  hop distance, for many sources at once: one level-synchronous BFS over
  uint64 rows holding one bit per source, so the exact Table 1 path
  statistics and the small-world L never build an all-pairs matrix;
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
    "hop_level_counts",
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


def _popcount(words: np.ndarray) -> int:
    """Number of set bits in a uint64 word array."""
    return int(np.bitwise_count(words).sum())


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
    all-pairs cost, and the band matrix is 4× smaller than a dense int32
    all-pairs matrix.  ``csr`` lets callers reuse
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


def _csr_arrays(adj: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten adjacency lists to CSR ``(indptr, indices)`` int64 arrays."""
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
    indices = (
        np.concatenate(adj).astype(np.int64, copy=False)
        if indptr[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return indptr, indices


def adjacency_to_csr(adj: Sequence[np.ndarray]) -> "csr_matrix":
    """Convert adjacency lists to a scipy CSR matrix of unit weights.

    Callers holding a :class:`~repro.net.topology.Topology` should pass its
    stored ``csr`` arrays to :func:`csr_to_matrix` instead of flattening
    the row list again.
    """
    return csr_to_matrix(*_csr_arrays(adj))


#: Source words per block of :func:`hop_level_counts`.  Every exact
#: Table 1 graph (N < 4096) runs as one block, the fastest width measured
#: at N = 4000 (a ~15 MB gathered block); larger source sets are cut into
#: blocks so the gathered ``(edges, words)`` block stays bounded.
_HOP_BLOCK_WORDS = 64


def hop_level_counts(
    indptr: np.ndarray, indices: np.ndarray, sources: Sequence[int]
) -> List[int]:
    """Ordered pairs per hop level: ``counts[k - 1]`` is the number of
    pairs ``(s, v)`` with ``s`` in ``sources`` and ``v`` exactly ``k`` hops
    from ``s``.

    The graph is CSR ``(indptr, indices)`` (row ``u`` lists u's
    neighbors).  The list ends at the last nonempty level, so its length
    is the largest eccentricity of a source within its component; pairs
    in different components never count.

    One level-synchronous BFS serves all sources: each node holds a
    uint64 row with one bit per source, and a level gathers the frontier
    rows of every node's neighbors, ORs them per node
    (``np.bitwise_or.reduceat``), masks out the visited bits and
    popcounts what is left.  Sources run in blocks of
    ``64 · _HOP_BLOCK_WORDS``; counts add across blocks.  Memory is
    O(N + E) words per block and no distance matrix is built.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64)
    n = len(indptr) - 1
    # reduceat over an empty segment yields the next element, not 0: only
    # rows with at least one neighbor are reduced
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[rows]
    counts: List[int] = []
    if rows.size == 0:
        return counts
    block = 64 * _HOP_BLOCK_WORDS
    for lo in range(0, src.size, block):
        ids = src[lo : lo + block]
        bit = np.arange(ids.size, dtype=np.uint64)
        frontier = np.zeros((n, (ids.size + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(frontier, (ids, bit // 64), np.left_shift(np.uint64(1), bit % 64))
        visited = frontier.copy()
        for level in range(n):  # no shortest path has n hops
            reached = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            reached &= ~visited[rows]
            found = _popcount(reached)
            if found == 0:
                break
            if level == len(counts):
                counts.append(0)
            counts[level] += found
            visited[rows] |= reached
            frontier = np.zeros_like(visited)
            frontier[rows] = reached
    return counts


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
    csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> GraphStats:
    """Compute :class:`GraphStats` for an adjacency structure.

    Diameter and mean hops follow the paper's Table 1 reading: they are
    taken over the *largest connected component* (several of the paper's
    sparser scenarios — e.g. scenario 3 with mean degree 2.57 — cannot be
    fully connected, yet report a finite diameter).

    ``pair_sample`` switches the path-length statistics to the sampled
    estimator (:func:`sample_pair_stats` over ``pair_sample`` giant-
    component sources) whenever the giant component is larger than the
    sample — the N≫10³ regime where even the exact per-level BFS
    (:func:`hop_level_counts` from every giant-component node) costs too
    much.  Small graphs always take the exact branch, so default-scale
    artifacts are byte-identical with or without the knob.  ``csr`` is
    the adjacency as ``(indptr, indices)`` when the caller already holds
    it (:attr:`repro.net.topology.Topology.csr`).

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
        # a BFS from the giant component stays in it; the integer sums
        # are exact in float64, so this is the mean of the pair distances
        indptr, indices = _csr_arrays(adj) if csr is None else csr
        counts = hop_level_counts(indptr, indices, giant)
        diameter = len(counts)
        mean_hops = float(sum(k * c for k, c in enumerate(counts, 1))) / sum(counts)
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
