"""Topology and workload generation for arbitrary experiment configurations.

Beyond Table 1, the paper's figures use specific (N, area) pairs chosen to
keep node density roughly constant (Fig 9 states this explicitly); the
:data:`FIG9_CONFIGS` below encode them together with the per-size CARD
parameters printed in the figure's legend.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.graph import bfs_hops
from repro.net.topology import Topology
from repro.util.rng import spawn_rng

__all__ = [
    "build_topology",
    "query_workload",
    "FIG9_CONFIGS",
    "Fig9Config",
    "SCALE_PROFILES",
    "MAX_SCALE",
    "resolve_scale",
    "scaled",
    "standard_topology",
    "sample_sources",
]

#: Named scale profiles accepted wherever a numeric ``scale`` is:
#:
#: * ``paper`` — the paper's own sizes (scale 1.0);
#: * ``xl``   — 20× the paper's node counts.  The workhorse N=500
#:   topology becomes an N=10⁴ snapshot — the regime the sparse
#:   ``DistanceView`` substrate exists for (the seed-era APSP matrix
#:   could not build there at all).  Density is preserved (areas grow
#:   with √scale), so connectivity statistics stay comparable.
SCALE_PROFILES = {
    "paper": 1.0,
    "xl": 20.0,
}

#: Upper bound on numeric scales (guards against typo'd scale=200 runs).
MAX_SCALE = 100.0


def resolve_scale(scale) -> float:
    """A numeric scale from a float or a profile name (``"xl"``).

    Raises ``ValueError`` naming the known profiles for unknown strings
    or out-of-range numbers, matching the CLI's friendly-error style.  A
    bool is not a scale (``True`` would silently run at 1.0), and
    neither is anything but a real number or a string.
    """
    if isinstance(scale, bool) or not isinstance(scale, (numbers.Real, str)):
        raise ValueError(
            f"scale must be a number in (0, {MAX_SCALE:g}] or a profile "
            f"name, got {scale!r}"
        )
    if isinstance(scale, str):
        try:
            return float(scale) if scale not in SCALE_PROFILES else SCALE_PROFILES[scale]
        except ValueError:
            known = ", ".join(sorted(SCALE_PROFILES))
            raise ValueError(
                f"unknown scale {scale!r}; pass a number in (0, {MAX_SCALE:g}] "
                f"or a profile name ({known})"
            ) from None
    return float(scale)


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer knob, never below ``minimum``.

    Scales above 1 grow the experiment (the ``xl`` profile); the upper
    bound only exists to catch typos.
    """
    scale = resolve_scale(scale)
    if not (0.0 < scale <= MAX_SCALE):
        raise ValueError(f"scale must lie in (0, {MAX_SCALE:g}]")
    return max(minimum, int(round(value * scale)))


def standard_topology(
    *,
    num_nodes: int = 500,
    area: Tuple[float, float] = (710.0, 710.0),
    tx_range: float = 50.0,
    seed: Optional[int] = 0,
    salt: object = "std",
    reference_nodes: int = 500,
) -> Topology:
    """The paper's workhorse configuration (Table 1 scenario 5 family).

    Most reachability/overhead figures use N=500 nodes on 710 m × 710 m
    with a 50 m propagation range.  When ``num_nodes`` differs from
    ``reference_nodes`` (scaled CI runs) the area shrinks proportionally so
    node *density* — and with it connectivity, mean degree and the shapes
    of all reachability curves — is preserved (the paper applies the same
    density matching across sizes in Fig 9).
    """
    if num_nodes != reference_nodes:
        factor = float(np.sqrt(num_nodes / reference_nodes))
        area = (area[0] * factor, area[1] * factor)
    return build_topology(num_nodes, area, tx_range, seed=seed, salt=salt)


def sample_sources(
    num_nodes: int, count: Optional[int], seed: Optional[int]
) -> Optional[Sequence[int]]:
    """Pick a reproducible source sample (None = all nodes)."""
    if count is None or count >= num_nodes:
        return None
    rng = np.random.default_rng(0 if seed is None else seed)
    return sorted(int(s) for s in rng.choice(num_nodes, size=count, replace=False))


def build_topology(
    num_nodes: int,
    area: Tuple[float, float],
    tx_range: float,
    *,
    seed: Optional[int] = 0,
    salt: object = "factory",
) -> Topology:
    """Uniform-random topology with a namespaced seed.

    ``salt`` separates topology draws of different experiments that happen
    to share (seed, N, area) so they do not reuse the same placement.
    """
    rng = spawn_rng(seed, "topology", salt, num_nodes, area[0], area[1], tx_range)
    return Topology.uniform_random(num_nodes, area, tx_range, rng)


def query_workload(
    topology: Topology,
    num_queries: int,
    *,
    seed: Optional[int] = 0,
    connected_only: bool = False,
    distinct_sources: bool = False,
) -> List[Tuple[int, int]]:
    """Random (source, target) pairs, as in Fig 15's "50 randomly selected
    destinations from 50 random sources".

    Parameters
    ----------
    connected_only:
        Keep only pairs with a path between them (use when measuring
        traffic-per-successful-query rather than success rate).
    distinct_sources:
        Sample sources without replacement (the paper's 50-sources setup).
    """
    rng = spawn_rng(seed, "workload", num_queries)
    n = topology.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes for a query workload")
    if distinct_sources and num_queries <= n:
        sources = rng.choice(n, size=num_queries, replace=False)
    else:
        sources = rng.integers(0, n, size=num_queries)
    pairs: List[Tuple[int, int]] = []
    for s in sources:
        s = int(s)
        for _ in range(64):  # rejection-sample a valid target
            t = int(rng.integers(0, n))
            if t == s:
                continue
            if connected_only:
                if bfs_hops(topology.adj, s)[t] < 0:
                    continue
            pairs.append((s, t))
            break
        else:  # pragma: no cover - pathological topologies only
            raise RuntimeError(f"could not sample a target for source {s}")
    return pairs


@dataclass(frozen=True)
class Fig9Config:
    """One curve of Fig 9: a network size with its tuned CARD parameters."""

    num_nodes: int
    area: Tuple[float, float]
    noc: int
    R: int
    r: int

    @property
    def label(self) -> str:
        return (
            f"N={self.num_nodes}, {self.area[0]:g}x{self.area[1]:g} m, "
            f"NoC={self.noc}, R={self.R}, r={self.r}"
        )


#: Fig 9's three density-matched configurations, from the figure legend.
FIG9_CONFIGS: List[Fig9Config] = [
    Fig9Config(250, (500.0, 500.0), noc=10, R=3, r=14),
    Fig9Config(500, (710.0, 710.0), noc=12, R=5, r=17),
    Fig9Config(1000, (1000.0, 1000.0), noc=15, R=6, r=24),
]

#: Per-size configurations for the Fig 15 scheme comparison.  The paper
#: does not print Fig 15's (R, r, NoC); the Fig 9 legend values optimise
#: D=1 reachability and starve the depth-3 contact *tree* (large R thins
#: the (2R, r] band to ~2 contacts/node).  These are tuned for D=3 query
#: success instead, the regime Fig 15 reports (95 % at D=3).
FIG15_CONFIGS: List[Fig9Config] = [
    Fig9Config(250, (500.0, 500.0), noc=6, R=3, r=12),
    Fig9Config(500, (710.0, 710.0), noc=6, R=3, r=12),
    Fig9Config(1000, (1000.0, 1000.0), noc=10, R=4, r=18),
]
