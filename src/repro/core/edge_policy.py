"""Edge-launch policies: the paper's "other heuristics for contact
selection mechanisms" (§V future work).

A CSQ enters the network through one of the source's edge nodes; *which*
edge matters, because the walk tends to find contacts roughly behind the
edge it left through.  The paper launches through edges "one at a time"
without specifying an order; we implement three policies, all GPS-free
(design requirement (e) — only hop-count knowledge is used):

* **RANDOM** — a fixed random permutation, cycled (the baseline our
  reproduction of the paper's figures uses);
* **SPREAD** — farthest-point sampling over the *edge set's own hop
  metric*: each launch picks the edge node maximizing the minimum hop
  distance to every edge already used for a successful contact.
  Intuition: contacts end up on geographically distinct sides of the
  source without any coordinates.  Ranking reads the tables'
  ``band_hops`` (the 2R-horizon band) — edge nodes of one source are
  pairwise at most 2R apart (both sit exactly R hops from the source),
  so the bounded band answers every separation exactly and no all-pairs
  matrix is ever consulted;
* **DEGREE** — prefer high-degree edges (walks entering dense regions
  find non-overlapping candidates faster, at the risk of clustering all
  contacts in the dense part of the field).

The ablation bench ``bench_ablation_edge_policy`` measures what each buys
in reachability per message.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

import numpy as np

from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["EdgePolicy", "order_edges", "next_edge"]


class EdgePolicy(enum.Enum):
    """How a source cycles its edge nodes across CSQ launches."""

    RANDOM = "random"
    SPREAD = "spread"
    DEGREE = "degree"


def order_edges(
    policy: EdgePolicy,
    edges: Sequence[int],
    tables: NeighborhoodTables,
    rng: np.random.Generator,
) -> List[int]:
    """Initial launch order for ``edges`` under ``policy``."""
    edges = [int(e) for e in edges]
    if not edges:
        return []
    if policy is EdgePolicy.RANDOM:
        out = list(edges)
        rng.shuffle(out)
        return out
    if policy is EdgePolicy.DEGREE:
        degrees = [len(tables.topology.adj[e]) for e in edges]
        jitter = rng.random(len(edges))  # random tie-breaking
        order = np.lexsort((jitter, [-d for d in degrees]))
        return [edges[int(i)] for i in order]
    if policy is EdgePolicy.SPREAD:
        # farthest-point sampling seeded by a random edge; separations
        # come from the 2R contact band (exact for edge-edge pairs)
        out = [edges[int(rng.integers(len(edges)))]]
        remaining = [e for e in edges if e != out[0]]
        while remaining:
            best = max(
                remaining,
                key=lambda e: min(_separation(tables, e, u) for u in out),
            )
            out.append(best)
            remaining.remove(best)
        return out
    raise ValueError(f"unknown edge policy {policy!r}")


def _separation(tables: NeighborhoodTables, a: int, b: int) -> int:
    """Band-scoped hop distance, with out-of-band pairs pushed to "far"."""
    h = tables.band_hops(a, b)
    return int(h) if h >= 0 else 10**6


def next_edge(
    policy: EdgePolicy,
    ordered: Sequence[int],
    attempt: int,
    used_for_contacts: Sequence[int],
    tables: NeighborhoodTables,
) -> Optional[int]:
    """Edge for the ``attempt``-th CSQ, given edges that already produced
    contacts.

    RANDOM/DEGREE simply cycle the precomputed order.  SPREAD re-ranks on
    every launch: it picks the unused-this-round edge farthest (min hop
    distance) from all *productive* edges so far, falling back to cycling
    when every edge has produced a contact.
    """
    if not ordered:
        return None
    if policy is not EdgePolicy.SPREAD or not used_for_contacts:
        return int(ordered[attempt % len(ordered)])
    candidates = [e for e in ordered if e not in used_for_contacts]
    if not candidates:
        return int(ordered[attempt % len(ordered)])

    def separation(e: int) -> int:
        return min(_separation(tables, e, u) for u in used_for_contacts)

    return int(max(candidates, key=separation))
