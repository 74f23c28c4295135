"""The paper's reachability metric (§III.B, §IV.A).

Reachability of a source = the percentage of network nodes it can reach:
its own neighborhood, plus the neighborhoods of its contacts (D=1), plus
the neighborhoods of its contacts' contacts (D=2), etc.

The paper reports reachability two ways and we provide both:

* a per-node percentage (Figs 3, 14 plot its mean);
* a **distribution**: the number of nodes falling into each 5 %
  reachability bin (the x-axes "5 10 15 ... 100" of Figs 5-9).

Implementation notes: membership is the boolean N×N matrix (dense or the
CSR-backed :class:`~repro.net.substrate.SparseMembership`) from
:class:`~repro.routing.neighborhood.NeighborhoodTables`.
:func:`reachability_all` answers every source in one pass over a
:class:`PackedMembership` — neighborhood rows packed to uint64 bit-words
(``np.packbits``), so the union over a contact level is an OR-reduction
over ``N/64`` words per row instead of ``N`` bools, and each row is
densified exactly once per call however many sources share a contact.  Counts come from a word popcount, which equals the bool-row
sum bit for bit — callers see identical floats either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro import obs
from repro.core.state import ContactTable
from repro.net.graph import _popcount
from repro.util.validation import check_node_id

__all__ = [
    "DIST_BIN_EDGES",
    "PackedMembership",
    "reachability_all",
    "reachability_distribution",
    "contact_ids_map",
]

#: Upper edges of the paper's reachability histogram bins (percent).
DIST_BIN_EDGES: np.ndarray = np.arange(5, 105, 5)

#: Rows packed per chunk when building a :class:`PackedMembership` (bounds
#: the transient dense block to ``chunk × N`` bools).
_PACK_CHUNK = 1024


class PackedMembership:
    """Neighborhood rows as uint64 bit-words: bit ``v`` of row ``u`` is set
    iff ``membership[u, v]``.

    Rows can cover the whole matrix or only a requested id subset (the
    per-source reachability pass needs just the sources and their contact
    closure).  At N=10⁴ the full packing is ~12.5 MB — 1/8 of the dense
    bool matrix and free of the per-source row densification the sparse
    backend would otherwise repeat for every shared contact.
    """

    __slots__ = ("words", "n", "index")

    def __init__(
        self, words: np.ndarray, n: int, index: Optional[Dict[int, int]] = None
    ) -> None:
        self.words = words
        self.n = int(n)
        #: node id → row position; None when rows are 0..N-1 (identity)
        self.index = index

    @classmethod
    def from_membership(
        cls,
        membership,
        ids: Optional[Iterable[int]] = None,
        *,
        chunk: int = _PACK_CHUNK,
    ) -> "PackedMembership":
        """Pack ``membership`` rows (all of them, or only ``ids``).

        Works on the dense bool matrix and on
        :class:`~repro.net.substrate.SparseMembership` alike — both
        densify a bounded row block per chunk, never the full N² matrix.
        """
        n = int(membership.shape[0])
        if ids is None:
            row_ids = np.arange(n, dtype=np.int64)
            index: Optional[Dict[int, int]] = None
        else:
            row_ids = np.fromiter(
                sorted({int(i) for i in ids}), dtype=np.int64
            )
            index = {int(u): k for k, u in enumerate(row_ids)}
        n_bytes = (n + 7) // 8
        n_words = (n_bytes + 7) // 8
        buf = np.zeros((row_ids.size, n_words * 8), dtype=np.uint8)
        for lo in range(0, row_ids.size, int(chunk)):
            block_ids = row_ids[lo: lo + int(chunk)]
            block = np.asarray(membership[block_ids], dtype=bool)
            buf[lo: lo + block_ids.size, :n_bytes] = np.packbits(block, axis=1)
        words = buf.view(np.uint64).reshape(row_ids.size, n_words)
        return cls(words, n, index)

    def row(self, u: int) -> np.ndarray:
        """Packed words of row ``u`` (a view — copy before mutating)."""
        r = int(u) if self.index is None else self.index[int(u)]
        return self.words[r]

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """Packed words of several rows, shape ``(len(ids), n_words)``."""
        if self.index is None:
            idx = np.asarray(ids, dtype=np.int64)
        else:
            idx = np.fromiter(
                (self.index[int(u)] for u in ids), dtype=np.int64
            )
        return self.words[idx]

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = self.words.shape[0]
        return f"PackedMembership(n={self.n}, rows={rows})"


def contact_ids_map(tables: Dict[int, ContactTable]) -> Dict[int, Sequence[int]]:
    """Extract ``source → contact ids`` from the contact tables."""
    return {src: table.ids() for src, table in tables.items()}


def _depth0_percents(membership, srcs: List[int]) -> np.ndarray:
    """Depth-0 reachability = own-neighborhood size, via row popcounts.

    Never densifies a row: the CSR backend answers from ``indptr`` row
    lengths, the dense matrix from row sums.
    """
    n = membership.shape[0]
    indptr = getattr(membership, "indptr", None)
    if indptr is not None:
        counts = np.fromiter(
            (int(indptr[s + 1] - indptr[s]) for s in srcs), dtype=np.int64
        )
    else:
        counts = membership[np.asarray(srcs, dtype=np.int64)].sum(axis=1)
    return 100.0 * counts.astype(np.float64) / n


def _contact_closure(
    srcs: Sequence[int], contacts: Dict[int, Sequence[int]], depth: int
) -> Set[int]:
    """All ids whose membership row any source's level walk can touch."""
    needed: Set[int] = set(srcs)
    frontier: Set[int] = set(srcs)
    for _ in range(depth):
        nxt: Set[int] = set()
        for u in frontier:
            for c in contacts.get(u, ()):
                c = int(c)
                if c not in needed:
                    needed.add(c)
                    nxt.add(c)
        if not nxt:
            break
        frontier = nxt
    return needed


def reachability_all(
    membership: np.ndarray,
    contacts: Dict[int, Sequence[int]],
    sources: Optional[Sequence[int]] = None,
    depth: int = 1,
) -> np.ndarray:
    """Reachability (%) for every source (or the given subset).

    One packed-bitset pass: rows for the sources and their contact
    closure are packed once, then each source's union is an OR-reduction
    over uint64 words.  Results are bit-identical to the single-source
    dense-row union (``reachability_percent`` in ``tests/oracles.py``;
    popcount == bool sum).
    """
    n = membership.shape[0]
    if depth < 0:
        raise ValueError("depth must be >= 0")
    srcs = (
        list(range(n))
        if sources is None
        else [check_node_id(s, n, "source") for s in sources]
    )
    if not srcs:
        return np.zeros(0, dtype=np.float64)
    if depth == 0:
        return _depth0_percents(membership, srcs)
    with obs.span("reach_union"):
        ids = None if sources is None else _contact_closure(srcs, contacts, depth)
        packed = PackedMembership.from_membership(membership, ids)
        out = np.empty(len(srcs), dtype=np.float64)
        for k, source in enumerate(srcs):
            reached = packed.row(source).copy()
            level = {source}
            seen = {source}
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
                rows = packed.rows(np.fromiter(nxt, dtype=np.int64))
                reached |= np.bitwise_or.reduce(rows, axis=0)
                level = nxt
            out[k] = 100.0 * _popcount(reached) / n
    return out


def reachability_distribution(percents: np.ndarray) -> np.ndarray:
    """Histogram of reachability percentages over the paper's 5 % bins.

    Returns 20 counts for the bins ``(0, 5], (5, 10], ..., (95, 100]``;
    a node with 0 % reachability (isolated, no neighborhood) lands in the
    first bin.  ``sum(counts) == len(percents)`` always.
    """
    p = np.asarray(percents, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 100.0):
        raise ValueError("reachability percentages must lie in [0, 100]")
    # right-closed bins via a tiny left shift of the sample
    idx = np.clip(np.ceil(p / 5.0).astype(np.int64) - 1, 0, 19)
    counts = np.bincount(idx, minlength=20)
    return counts
