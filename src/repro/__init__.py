"""CARD: Contact-Based Architecture for Resource Discovery in large-scale
MANets — a full reproduction of Garg, Pamu, Nahata & Helmy (IPDPS 2003).

Quickstart
----------
>>> import numpy as np
>>> from repro import Topology, Network, CARDProtocol, CARDParams
>>> rng = np.random.default_rng(7)
>>> topo = Topology.uniform_random(200, (500.0, 500.0), 60.0, rng)
>>> card = CARDProtocol(Network(topo), CARDParams(R=2, r=6, noc=4), seed=7)
>>> _ = card.bootstrap()
>>> result = card.query(0, 150, max_depth=3)
>>> result.success in (True, False)
True

Package layout
--------------
``repro.core``       — the CARD protocol (selection / maintenance / query)
``repro.net``        — wireless substrate (topology, graph, messages, stats)
``repro.des``        — discrete-event engine
``repro.mobility``   — random-waypoint and friends
``repro.routing``    — the neighborhood oracle (R-hop zone knowledge)
``repro.discovery``  — flooding / expanding-ring / bordercast baselines
``repro.scenarios``  — Table 1 scenarios and workload generation
``repro.campaign``   — declarative sweep grids run over a process pool
                       with a persistent, resumable result store
                       (``python -m repro.campaign``; its ``figure``
                       command regenerates artifacts by id)
``repro.artifacts``  — the paper-artifact registry: each table/figure
                       defined once as an ``Artifact`` (spec recipe +
                       table layout + options + metadata)
``repro.api``        — the stable facade: ``list_artifacts`` /
                       ``describe`` / ``run`` (multi-seed mean ± CI)
"""

from repro._version import __version__
from repro.core import (
    CARDParams,
    CARDProtocol,
    Contact,
    ContactTable,
    SelectionMethod,
    SnapshotRunner,
    TimeSeriesRunner,
)
from repro.des import Simulator
from repro.mobility import (
    GaussMarkov,
    RandomWalk,
    RandomWaypoint,
)
from repro.net import MessageStats, Network, Topology
from repro.analysis import smallworld_report
from repro.routing import NeighborhoodTables
from repro.discovery import (
    BordercastDiscovery,
    ExpandingRingDiscovery,
    FloodingDiscovery,
)
from repro.scenarios import TABLE1_SCENARIOS, build_topology, get_scenario
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    TopologySpec,
)

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "ResultStore",
    "TopologySpec",
    "__version__",
    "CARDParams",
    "CARDProtocol",
    "Contact",
    "ContactTable",
    "SelectionMethod",
    "SnapshotRunner",
    "TimeSeriesRunner",
    "Simulator",
    "GaussMarkov",
    "RandomWalk",
    "RandomWaypoint",
    "MessageStats",
    "Network",
    "Topology",
    "smallworld_report",
    "NeighborhoodTables",
    "BordercastDiscovery",
    "ExpandingRingDiscovery",
    "FloodingDiscovery",
    "TABLE1_SCENARIOS",
    "build_topology",
    "get_scenario",
]
