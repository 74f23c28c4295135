"""Wireless network substrate: geometry, connectivity, messages, accounting.

This package replaces the NS-2 substrate the paper used.  Its layers:

* :mod:`repro.net.spatial` — a uniform-grid spatial index for O(N) unit-disk
  neighbor queries (vectorized with NumPy per the HPC guides);
* :mod:`repro.net.topology` — node positions + transmission range → a CSR
  adjacency (``adj`` rows are views of it), rebuilt and diffed as array
  operations as mobility moves nodes;
* :mod:`repro.net.graph` — hop-count BFS (vectorized and scipy.sparse bulk
  variants, including the radius-bounded frontier-product kernel),
  connected components, diameter and mean-hop statistics — the
  quantities reported in the paper's Table 1;
* :mod:`repro.net.substrate` — the shared, incrementally-maintained
  bounded-distance engine and the horizon-scoped :class:`DistanceView`
  API every distance consumer reads from (dense below, sparse CSR above
  the node threshold);
* :mod:`repro.net.messages` — typed control messages (CSQ, validation, DSQ,
  bordercast, flood) shared by CARD and the baselines;
* :mod:`repro.net.stats` — the control-message accounting that every figure
  of the paper's overhead analysis is computed from;
* :mod:`repro.net.network` — a façade coupling topology, DES clock and
  stats, offering hop-by-hop unicast and one-hop broadcast primitives.
"""

from repro.net.topology import Topology
from repro.net.graph import (
    bfs_hops,
    bfs_tree,
    bounded_hop_distances,
    hop_distance_matrix,
    connected_components,
    graph_stats,
    GraphStats,
    PairSampleStats,
    sample_pair_stats,
)
from repro.net.substrate import (
    DistanceSubstrate,
    DistanceView,
    GlobalDistanceView,
    SparseMembership,
    SubstrateStats,
)
from repro.net.messages import (
    Message,
    MessageKind,
    ContactSelectionQuery,
    ValidationMessage,
    DestinationSearchQuery,
    QueryReply,
    FloodQuery,
    BordercastQuery,
)
from repro.net.link import LinkModel, LinkSpec
from repro.net.stats import MessageStats, OVERHEAD_CATEGORIES
from repro.net.network import Network

__all__ = [
    "Topology",
    "Network",
    "bfs_hops",
    "bfs_tree",
    "bounded_hop_distances",
    "DistanceSubstrate",
    "DistanceView",
    "GlobalDistanceView",
    "SparseMembership",
    "SubstrateStats",
    "hop_distance_matrix",
    "connected_components",
    "graph_stats",
    "GraphStats",
    "PairSampleStats",
    "sample_pair_stats",
    "Message",
    "MessageKind",
    "ContactSelectionQuery",
    "ValidationMessage",
    "DestinationSearchQuery",
    "QueryReply",
    "FloodQuery",
    "BordercastQuery",
    "LinkSpec",
    "LinkModel",
    "MessageStats",
    "OVERHEAD_CATEGORIES",
]
