"""Parallel, resumable experiment campaigns with a persistent result store.

The paper's evaluation is a grid — scenarios × protocol parameters ×
seeds — and this package turns such grids into first-class, declarative
objects instead of bespoke per-figure loops:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` describes the grid
  (plus :class:`CaseSpec` labeled variants for sweeps a Cartesian
  product can't express); every expanded :class:`CellSpec` is
  content-hashed for stable identity.  Cells come in three regimes:
  *snapshot* (static topology), *time series* (a ``duration`` plus a
  declarative :class:`MobilitySpec` runs the full mobility + maintenance
  stack, recording binned ``series``/``contacts``/``churn`` metric
  families) and *event-driven* (a :class:`DesSpec` runs the
  message-level DES with per-link latency/loss, recording the ``des``
  family);
* :mod:`repro.campaign.runner` — :class:`CampaignRunner` fans cells out
  over a process pool (``n_workers=1`` = deterministic in-process run);
* :mod:`repro.campaign.store` — the :class:`CellStore` backends:
  :class:`ResultStore` (append-only JSONL — crash-safe persistence,
  cache hits, ``resume``) and :class:`SqliteStore` (WAL-mode sqlite,
  safe for the concurrent writer fleets of :mod:`repro.service`),
  selected by URI via :func:`open_store` and folded together by
  :func:`merge_stores`;
* :mod:`repro.campaign.aggregate` — group-by / mean / CI reduction of
  stored cells back into :class:`~repro.artifacts.result.ExperimentResult`
  tables, plus the label → metrics join table reducers start from;
* ``python -m repro.campaign run|resume|status|report|figure`` — the
  command-line workflow (see ``--help``; ``report --format csv|json``
  feeds external plotting, and ``figure <id>`` regenerates a paper
  artifact through :mod:`repro.artifacts.registry` — the only place this
  package knows an artifact id; the definitions live above the engine).

Quickstart
----------
>>> from repro.campaign import CampaignSpec, TopologySpec, CampaignRunner
>>> spec = CampaignSpec(
...     name="noc-sweep",
...     topologies=(TopologySpec(kind="standard", num_nodes=80),),
...     base_params={"R": 2, "r": 6},
...     grid={"noc": [2, 4]},
...     seeds=(0, 1),
...     num_sources=10,
... )
>>> report = CampaignRunner(spec).run()
>>> (report.executed, report.cached, report.ok)
(4, 0, True)
"""

from repro.campaign.spec import (
    CampaignSpec,
    CaseSpec,
    CellSpec,
    DesSpec,
    MobilitySpec,
    TopologySpec,
    content_hash,
)
from repro.campaign.store import (
    CellStore,
    MergeReport,
    ResultStore,
    SqliteStore,
    merge_stores,
    open_store,
)
from repro.campaign.runner import (
    CampaignReport,
    CampaignRunner,
    CellOutcome,
    execute_cell,
)

__all__ = [
    "CampaignSpec",
    "CaseSpec",
    "CellSpec",
    "DesSpec",
    "MobilitySpec",
    "TopologySpec",
    "content_hash",
    "CellStore",
    "ResultStore",
    "SqliteStore",
    "MergeReport",
    "open_store",
    "merge_stores",
    "CampaignRunner",
    "CampaignReport",
    "CellOutcome",
    "execute_cell",
    # resolved lazily: aggregate pulls in the result/rendering layer
    "aggregate",
    "aggregate_table",
    "stored_records",
    "labeled_metrics",
    "unique_cells",
]

_LAZY_AGGREGATE = (
    "aggregate_table",
    "stored_records",
    "labeled_metrics",
    "unique_cells",
)


def __getattr__(name):
    """Lazy access to :mod:`repro.campaign.aggregate` (PEP 562), keeping
    plain ``import repro`` lightweight."""
    if name == "aggregate" or name in _LAZY_AGGREGATE:
        import repro.campaign.aggregate as aggregate

        return aggregate if name == "aggregate" else getattr(aggregate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
