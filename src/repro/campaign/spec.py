"""Declarative campaign specifications.

A *campaign* is a grid of independent simulation *cells*:

    topologies × CARD-parameter combinations × seeds   (grid axes)
    cases × seeds                                      (labeled variants)

Each cell names everything needed to run one measurement — a topology
recipe (:class:`TopologySpec`), a dict of :class:`CARDParams` overrides,
a root seed and the metric families to record — and nothing else, so
cells can be hashed, cached, shipped to worker processes and re-run
years later with identical results.

Two measurement regimes are supported, mirroring
:mod:`repro.core.runner`:

* **snapshot** (the default) — a static topology; contact selection runs
  once and reachability/overhead/structure metrics are recorded;
* **time series** — set ``duration`` and a :class:`MobilitySpec` and the
  cell runs the full mobility + maintenance stack
  (:class:`~repro.core.runner.TimeSeriesRunner`), recording the binned
  per-step metric families ``series``/``contacts``/``churn``.

:class:`CaseSpec` covers sweeps that a Cartesian grid cannot express:
each case is a *labeled* bundle of parameter overrides with an optional
per-case topology, mobility model or workload (e.g. Fig 9's per-size
tuned configurations, or the mobility-model ablation).  Labels exist
only at the spec level — they never enter the cell hash, so relabeling
a case keeps its stored results valid.

The whole spec serialises to/from JSON (``to_json``/``from_json``), which
is what ``python -m repro.campaign`` consumes.  Cell identity is a stable
content hash (:func:`content_hash`) of the cell's canonical JSON form;
the :class:`~repro.campaign.store.ResultStore` keys records by it, which
is what makes re-runs cache hits and ``resume`` incremental.  Snapshot
cells serialise exactly as they did before the time-series extension
(new fields are omitted at their defaults), so pre-existing stores keep
matching.
"""

from __future__ import annotations

import enum
import hashlib
import json
import numbers
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.params import CARDParams
from repro.net.topology import Topology
from repro.scenarios.factory import build_topology, standard_topology
from repro.scenarios.table1 import get_scenario
from repro.util.rng import spawn_rng

__all__ = [
    "SPEC_VERSION",
    "METRIC_FAMILIES",
    "SNAPSHOT_METRIC_FAMILIES",
    "SERIES_METRIC_FAMILIES",
    "DES_METRIC_FAMILIES",
    "EXCLUSIVE_METRIC_FAMILIES",
    "MOBILITY_MODELS",
    "MobilitySpec",
    "DesSpec",
    "TopologySpec",
    "CaseSpec",
    "CellSpec",
    "CampaignSpec",
    "content_hash",
]

#: Bumped whenever the canonical cell-dict schema changes incompatibly
#: (it participates in the content hash, so old stores stop matching).
#: The time-series extension is *compatible*: new cell fields are only
#: serialised when set, so snapshot cells hash as they always did.
SPEC_VERSION = 1

#: Metric families recorded by snapshot cells (static topology).
SNAPSHOT_METRIC_FAMILIES = (
    "topology",       # Table 1 connectivity statistics
    "reachability",   # per-source reachability mean + 5%-bin histogram
    "overhead",       # CSQ selection/backtracking costs, message totals
    "overlap",        # fraction of selected contacts overlapping the source
    "tradeoff",       # Fig 14 extras: per-source route hops, >=50% fraction
    "smallworld",     # clustering / path-length / shortcut statistics
    "comparison",     # CARD vs flooding vs bordercasting (needs workload)
    "query",          # one discovery scheme over a workload (needs workload)
    "failures",       # crash/repair phases (needs workload)
)

#: Metric families recorded by time-series cells (mobility + maintenance;
#: require ``duration`` and ``mobility``).
SERIES_METRIC_FAMILIES = (
    "series",    # binned overhead/maintenance/selection/backtracking
    "contacts",  # total contacts held + contacts lost per bin
    "churn",     # per-mobility-step link churn + substrate refresh stats
)

#: Metric family recorded by event-driven cells (require a
#: :class:`DesSpec`): discovery latency distribution, staleness-induced
#: query failures, and overhead in messages *and* byte-seconds.
DES_METRIC_FAMILIES = ("des",)

#: Families that must be a cell's *only* family: they drive their own
#: protocol deployment (bootstrap/workload), so combining them with the
#: SnapshotRunner families would measure two different runs in one cell.
EXCLUSIVE_METRIC_FAMILIES = frozenset(
    {"smallworld", "comparison", "query", "failures"}
)

#: All metric families a cell can record.
METRIC_FAMILIES = (
    SNAPSHOT_METRIC_FAMILIES + SERIES_METRIC_FAMILIES + DES_METRIC_FAMILIES
)

#: Keys a cell workload mapping may carry.
WORKLOAD_KEYS = frozenset({"num_queries", "scheme", "fail_fraction"})

#: Schemes the ``query`` metric family can run.
QUERY_SCHEMES = ("dsq", "dsq_nodedup", "ring")


def content_hash(obj: object) -> str:
    """Stable SHA-256 hex digest of ``obj``'s canonical JSON form.

    Key order and container identity do not matter; two specs describing
    the same cell hash identically across processes and sessions (unlike
    Python's salted ``hash``).
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _json_value(name: str, value: object) -> object:
    """Coerce a parameter value to its canonical JSON form.

    Enum members become their values (what ``CARDParams.from_dict``
    accepts back) and numpy scalars their Python equivalents, so the
    content hash of a programmatically-built spec matches the hash of
    the same spec round-tripped through JSON.  Anything not representable
    is rejected here, with the knob named, instead of surfacing as an
    opaque ``TypeError`` from ``json.dumps`` inside ``key()``.
    """
    if isinstance(value, enum.Enum):
        return _json_value(name, value.value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(name, v) for v in value]
    raise ValueError(
        f"parameter {name!r} has non-JSON-serialisable value {value!r} "
        f"({type(value).__name__}); use plain scalars, strings or enum values"
    )


def _check_version(kind: str, version: object) -> None:
    if version != SPEC_VERSION:
        raise ValueError(
            f'{kind} spec "v": {version!r} not supported '
            f"(this build reads v{SPEC_VERSION})"
        )


def _reject_bare_string(field_name: str, values: object) -> None:
    """A string where a list belongs would be iterated per character."""
    if isinstance(values, (str, bytes)):
        raise ValueError(
            f"{field_name} must be a list of values, got the bare string "
            f"{values!r} (wrap it: [{values!r}])"
        )


# ----------------------------------------------------------------------
#: Known mobility models and the :class:`MobilitySpec` fields each reads.
MOBILITY_MODELS: Dict[str, Tuple[str, ...]] = {
    "rwp": ("min_speed", "max_speed", "pause"),
    "walk": ("min_speed", "max_speed", "mean_epoch"),
    "gauss_markov": ("alpha", "mean_speed", "sigma"),
}


@dataclass(frozen=True)
class MobilitySpec:
    """A declarative mobility model — how nodes move during a cell.

    Only the fields relevant to ``model`` are serialised and hashed
    (see :data:`MOBILITY_MODELS`); setting an irrelevant field to a
    non-default value is rejected, so a spec cannot silently carry a
    knob the model ignores.
    """

    model: str = "rwp"
    #: random waypoint / random walk speed band (m/s)
    min_speed: float = 0.5
    max_speed: float = 5.0
    #: random waypoint pause at each waypoint (s)
    pause: float = 2.0
    #: random walk mean leg duration (s)
    mean_epoch: float = 5.0
    #: Gauss-Markov memory, mean speed and randomness
    alpha: float = 0.85
    mean_speed: float = 2.5
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r}; "
                f"known: {sorted(MOBILITY_MODELS)}"
            )
        relevant = MOBILITY_MODELS[self.model]
        for f in (
            "min_speed", "max_speed", "pause", "mean_epoch",
            "alpha", "mean_speed", "sigma",
        ):
            value = getattr(self, f)
            if f in relevant:
                object.__setattr__(self, f, float(value))
            elif float(value) != float(_MOBILITY_DEFAULTS[f]):
                raise ValueError(
                    f"mobility field {f!r} is not read by model "
                    f"{self.model!r} (its fields: {relevant}); remove it"
                )

    # ------------------------------------------------------------------
    def factory(self):
        """The ``(positions, area, rng) -> MobilityModel`` callable
        :class:`~repro.core.runner.TimeSeriesRunner` expects."""
        if self.model == "rwp":
            from repro.mobility.waypoint import RandomWaypoint

            return lambda p, a, rng: RandomWaypoint(
                p,
                a,
                min_speed=self.min_speed,
                max_speed=self.max_speed,
                pause_time=self.pause,
                rng=rng,
            )
        if self.model == "walk":
            from repro.mobility.walk import RandomWalk

            return lambda p, a, rng: RandomWalk(
                p,
                a,
                min_speed=self.min_speed,
                max_speed=self.max_speed,
                mean_epoch=self.mean_epoch,
                rng=rng,
            )
        from repro.mobility.gauss_markov import GaussMarkov

        return lambda p, a, rng: GaussMarkov(
            p,
            a,
            alpha=self.alpha,
            mean_speed=self.mean_speed,
            sigma=self.sigma,
            rng=rng,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"model": self.model}
        for f in MOBILITY_MODELS[self.model]:
            out[f] = float(getattr(self, f))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MobilitySpec":
        kwargs = dict(data)
        model = kwargs.get("model", "rwp")
        if model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {model!r}; "
                f"known: {sorted(MOBILITY_MODELS)}"
            )
        unknown = set(kwargs) - {"model"} - set(MOBILITY_MODELS[model])
        if unknown:
            raise ValueError(
                f"unknown mobility keys {sorted(unknown)} for model "
                f"{model!r}; it reads {MOBILITY_MODELS[model]}"
            )
        return cls(**kwargs)  # type: ignore[arg-type]


_MOBILITY_DEFAULTS = {
    f.name: f.default for f in MobilitySpec.__dataclass_fields__.values()
}


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesSpec:
    """Declarative knobs of the event-driven (``des``) regime.

    Mirrors :class:`MobilitySpec`'s role: a validated, content-hashed
    bundle the runner turns into a :class:`~repro.net.link.LinkSpec` plus
    :class:`~repro.core.des_runner.DesRunner` arguments.  The regime's
    ``duration`` lives here (not on the cell) because an event-driven run
    is meaningless without a horizon even on a static topology.
    """

    #: fixed per-hop delay (s)
    latency: float = 0.002
    #: uniform extra per-hop delay bound (s); 0 = none
    jitter: float = 0.0
    #: per-transmission drop probability
    loss: float = 0.0
    #: bytes/second serialization term; None disables it
    bandwidth: Optional[float] = None
    #: simulated seconds after bootstrap
    duration: float = 10.0
    #: workload size (queries launched over ``[0.2, 0.8] × duration``)
    num_queries: int = 20
    #: seconds a query waits for its reply before retrying/failing
    query_timeout: float = 1.0
    #: extra attempts after the first timeout
    retries: int = 1

    def __post_init__(self) -> None:
        for f in ("latency", "jitter", "loss"):
            value = float(getattr(self, f))
            if value < 0:
                raise ValueError(f"des {f} must be >= 0")
            object.__setattr__(self, f, value)
        if self.loss > 1.0:
            raise ValueError("des loss is a probability (<= 1)")
        if self.bandwidth is not None:
            if float(self.bandwidth) <= 0:
                raise ValueError("des bandwidth must be positive (or None)")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        for f in ("duration", "query_timeout"):
            value = float(getattr(self, f))
            if value <= 0:
                raise ValueError(f"des {f} must be positive")
            object.__setattr__(self, f, value)
        if not isinstance(self.num_queries, numbers.Integral) or self.num_queries < 0:
            raise ValueError("des num_queries must be an integer >= 0")
        object.__setattr__(self, "num_queries", int(self.num_queries))
        if not isinstance(self.retries, numbers.Integral) or self.retries < 0:
            raise ValueError("des retries must be an integer >= 0")
        object.__setattr__(self, "retries", int(self.retries))

    # ------------------------------------------------------------------
    def link_spec(self):
        """The :class:`~repro.net.link.LinkSpec` these knobs describe."""
        from repro.net.link import LinkSpec

        return LinkSpec(
            latency=self.latency,
            jitter=self.jitter,
            loss=self.loss,
            bandwidth=self.bandwidth,
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "latency": float(self.latency),
            "jitter": float(self.jitter),
            "loss": float(self.loss),
            "duration": float(self.duration),
            "num_queries": int(self.num_queries),
            "query_timeout": float(self.query_timeout),
            "retries": int(self.retries),
        }
        if self.bandwidth is not None:
            out["bandwidth"] = float(self.bandwidth)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DesSpec":
        kwargs = dict(data)
        unknown = set(kwargs) - {
            f.name for f in cls.__dataclass_fields__.values()  # type: ignore[attr-defined]
        }
        if unknown:
            raise ValueError(
                f"unknown des keys {sorted(unknown)}; known: "
                f"{sorted(f.name for f in cls.__dataclass_fields__.values())}"  # type: ignore[attr-defined]
            )
        return cls(**kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A topology recipe — how to (re)build a network from a seed.

    Three kinds cover the paper's configurations:

    * ``"scenario"`` — a Table 1 scenario by 1-based index; ``num_nodes``
      optionally overrides the node count (scaled CI runs) while keeping
      the scenario's area, range and RNG stream, exactly as the legacy
      ``table1`` experiment does;
    * ``"standard"`` — the N=500 / 710 m × 710 m / 50 m workhorse of
      Figs 3-8, density-matched when ``num_nodes`` shrinks;
    * ``"explicit"`` — an arbitrary (num_nodes, area, tx_range) triple.
    """

    kind: str = "standard"
    num_nodes: Optional[int] = None
    scenario: Optional[int] = None
    area: Optional[Tuple[float, float]] = None
    tx_range: Optional[float] = None
    #: topology RNG namespace.  A string, or a tuple of strings/ints for
    #: experiments that salt per swept value (e.g. ``("fig10", noc)``) —
    #: serialised as a JSON list and coerced back so the derived stream
    #: matches the legacy runners exactly.
    salt: Union[str, Tuple[object, ...]] = "campaign"

    def __post_init__(self) -> None:
        if not isinstance(self.salt, str):
            salt = tuple(self.salt)
            for part in salt:
                if isinstance(part, bool) or not isinstance(
                    part, (str, int, numbers.Integral)
                ):
                    raise ValueError(
                        f"salt parts must be strings or ints, got {part!r}"
                    )
            object.__setattr__(
                self,
                "salt",
                tuple(p if isinstance(p, str) else int(p) for p in salt),
            )
        if self.kind not in ("standard", "scenario", "explicit"):
            raise ValueError(
                f"unknown topology kind {self.kind!r}; "
                "expected standard | scenario | explicit"
            )
        if self.kind == "scenario":
            if self.scenario is None:
                raise ValueError("scenario topologies need a Table 1 index")
            if self.area is not None or self.tx_range is not None:
                raise ValueError(
                    "scenario topologies take area/tx_range from Table 1; "
                    "only num_nodes can be overridden (use kind='explicit' "
                    "for custom geometry)"
                )
        elif self.scenario is not None:
            raise ValueError(
                f"scenario index given but kind is {self.kind!r}; "
                "use kind='scenario' to build a Table 1 topology"
            )
        if self.kind == "explicit" and (
            self.num_nodes is None or self.area is None or self.tx_range is None
        ):
            raise ValueError(
                "explicit topologies need num_nodes, area and tx_range"
            )
        if self.area is not None:
            object.__setattr__(self, "area", tuple(float(a) for a in self.area))

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable identity used in reports and group-bys.

        The (non-default) salt is included: two specs differing only in
        salt draw *different* node placements, and collapsing them in a
        group-by would average unrelated topologies.
        """
        if self.kind == "scenario":
            base = f"scenario{self.scenario}"
            if self.num_nodes is not None:
                base += f"@N={self.num_nodes}"
            return base
        n = self.num_nodes if self.num_nodes is not None else 500
        if self.kind == "standard":
            label = f"standard-N{n}"
            if self.area is not None:
                label += f"-{self.area[0]:g}x{self.area[1]:g}"
            if self.tx_range is not None:
                label += f"-tx{self.tx_range:g}"
        else:
            w, h = self.area  # type: ignore[misc]
            label = f"N{n}-{w:g}x{h:g}-tx{self.tx_range:g}"
        if self.salt != "campaign":
            salt = (
                self.salt
                if isinstance(self.salt, str)
                else "/".join(str(p) for p in self.salt)
            )
            label += f"#{salt}"
        return label

    def build(self, seed: Optional[int]) -> Topology:
        """Materialise the topology for ``seed``.

        The RNG streams match the legacy experiment paths bit-for-bit
        (scenario → ``spawn_rng(seed, "scenario", index)``, standard /
        explicit → the salted factory stream), so campaign cells reproduce
        the figure runners' numbers exactly.
        """
        if self.kind == "scenario":
            sc = get_scenario(int(self.scenario))  # type: ignore[arg-type]
            n = sc.num_nodes if self.num_nodes is None else int(self.num_nodes)
            if n == sc.num_nodes:
                return sc.build(seed)
            return Topology.uniform_random(
                n, sc.area, sc.tx_range, spawn_rng(seed, "scenario", sc.index)
            )
        if self.kind == "standard":
            kwargs: Dict[str, object] = {"seed": seed, "salt": self.salt}
            if self.num_nodes is not None:
                kwargs["num_nodes"] = int(self.num_nodes)
            if self.area is not None:
                kwargs["area"] = self.area
            if self.tx_range is not None:
                kwargs["tx_range"] = float(self.tx_range)
            return standard_topology(**kwargs)  # type: ignore[arg-type]
        return build_topology(
            int(self.num_nodes),  # type: ignore[arg-type]
            self.area,  # type: ignore[arg-type]
            float(self.tx_range),  # type: ignore[arg-type]
            seed=seed,
            salt=self.salt,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        salt = self.salt if isinstance(self.salt, str) else list(self.salt)
        out: Dict[str, object] = {"kind": self.kind, "salt": salt}
        if self.num_nodes is not None:
            out["num_nodes"] = int(self.num_nodes)
        if self.scenario is not None:
            out["scenario"] = int(self.scenario)
        if self.area is not None:
            out["area"] = [float(a) for a in self.area]
        if self.tx_range is not None:
            out["tx_range"] = float(self.tx_range)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TopologySpec":
        kwargs = dict(data)
        if kwargs.get("area") is not None:
            kwargs["area"] = tuple(kwargs["area"])  # type: ignore[arg-type]
        if isinstance(kwargs.get("salt"), list):
            kwargs["salt"] = tuple(kwargs["salt"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class CellSpec:
    """One independent unit of campaign work.

    ``params`` holds :class:`CARDParams` *overrides* (unset fields keep
    their defaults), so the hash covers exactly what the spec declares.

    A cell is a **snapshot** cell by default; setting ``duration`` and
    ``mobility`` makes it a **time-series** cell (mobility + periodic
    maintenance, metrics binned over time); setting ``des`` makes it an
    **event-driven** cell (message-level simulation with per-link
    latency/loss — the regime's duration lives inside :class:`DesSpec`,
    and ``mobility`` is optional).  The extra fields are only serialised
    when set, so snapshot cells keep their pre-extension content hashes.

    ``regime`` is a redundant declaration (``"snapshot" | "series" |
    "des"``) checked against what the other fields imply — it never
    enters the hash, it just catches a cell wired half-way into a
    regime at construction time instead of at execution time.
    """

    topology: TopologySpec
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    metrics: Tuple[str, ...] = ("reachability",)
    num_sources: Optional[int] = None
    #: simulated seconds after bootstrap (time-series cells only)
    duration: Optional[float] = None
    #: how nodes move during the run (time-series cells only)
    mobility: Optional[MobilitySpec] = None
    #: query-workload knobs for the comparison/query/failures families
    workload: Optional[Mapping[str, object]] = None
    #: run contact selection on *every* node and use ``num_sources`` only
    #: to bound the measured sample (depth ≥ 2 reachability follows
    #: contacts of non-source nodes — Fig 8's regime)
    full_selection: bool = False
    #: event-driven regime knobs (event-driven cells only)
    des: Optional[DesSpec] = None
    #: optional declared regime, validated against the derived one;
    #: normalised to the derived regime and never serialised
    regime: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "params",
            {k: _json_value(k, v) for k, v in dict(self.params).items()},
        )
        _reject_bare_string("metrics", self.metrics)
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = set(self.metrics) - set(METRIC_FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown metric families {sorted(unknown)}; "
                f"known: {METRIC_FAMILIES}"
            )
        if not self.metrics:
            raise ValueError("a cell must record at least one metric family")
        self._validate_regime()
        if self.workload is not None:
            object.__setattr__(
                self,
                "workload",
                {k: _json_value(k, v) for k, v in dict(self.workload).items()},
            )
            self._validate_workload()

    def _validate_regime(self) -> None:
        series = set(self.metrics) & set(SERIES_METRIC_FAMILIES)
        snapshot = set(self.metrics) & set(SNAPSHOT_METRIC_FAMILIES)
        exclusive = set(self.metrics) & EXCLUSIVE_METRIC_FAMILIES
        if exclusive and len(self.metrics) > 1:
            raise ValueError(
                f"metric families {sorted(exclusive)} run their own "
                "deployment and must be a cell's only family "
                f"(got {sorted(self.metrics)})"
            )
        if self.des is not None:
            if self.duration is not None:
                raise ValueError(
                    "event-driven cells take their duration from "
                    "DesSpec.duration; do not set CellSpec.duration"
                )
            if set(self.metrics) != set(DES_METRIC_FAMILIES):
                raise ValueError(
                    "event-driven cells record exactly the "
                    f"{DES_METRIC_FAMILIES} metric family "
                    f"(got {sorted(self.metrics)})"
                )
            if self.workload is not None:
                raise ValueError(
                    "event-driven cells size their workload via "
                    "DesSpec.num_queries; do not set workload"
                )
            if self.full_selection:
                raise ValueError(
                    "full_selection only applies to snapshot cells"
                )
            self._check_declared_regime("des")
            return
        if "des" in self.metrics:
            raise ValueError(
                "the des metric family needs des=DesSpec(...) on the cell"
            )
        if self.mobility is not None and self.duration is None:
            raise ValueError("mobility given but no duration: set both "
                             "to make this a time-series cell")
        self._check_declared_regime(
            "series" if self.duration is not None else "snapshot"
        )
        if self.duration is not None:
            if float(self.duration) <= 0:
                raise ValueError("duration must be positive")
            object.__setattr__(self, "duration", float(self.duration))
            if self.mobility is None:
                raise ValueError(
                    "time-series cells need a mobility model "
                    "(set mobility=MobilitySpec(...))"
                )
            if snapshot:
                raise ValueError(
                    f"snapshot metric families {sorted(snapshot)} cannot be "
                    "recorded by a time-series cell; use "
                    f"{SERIES_METRIC_FAMILIES}"
                )
            if self.full_selection:
                raise ValueError(
                    "full_selection only applies to snapshot cells"
                )
        elif series:
            raise ValueError(
                f"time-series metric families {sorted(series)} need "
                "duration and mobility"
            )

    def _check_declared_regime(self, derived: str) -> None:
        """Check an explicit ``regime`` against the derived one, then pin it."""
        if self.regime is not None and self.regime != derived:
            raise ValueError(
                f"cell declares regime={self.regime!r} but its fields "
                f"imply {derived!r}"
            )
        object.__setattr__(self, "regime", derived)

    def _validate_workload(self) -> None:
        families = set(self.metrics) & {"comparison", "query", "failures"}
        if not families:
            raise ValueError(
                "workload only applies to the comparison/query/failures "
                f"metric families (cell records {sorted(self.metrics)})"
            )
        unknown = set(self.workload) - WORKLOAD_KEYS  # type: ignore[arg-type]
        if unknown:
            raise ValueError(
                f"unknown workload keys {sorted(unknown)}; "
                f"known: {sorted(WORKLOAD_KEYS)}"
            )
        nq = self.workload.get("num_queries")  # type: ignore[union-attr]
        if not isinstance(nq, int) or nq < 1:
            raise ValueError("workload needs num_queries >= 1")
        scheme = self.workload.get("scheme")  # type: ignore[union-attr]
        if "query" in families:
            if scheme not in QUERY_SCHEMES:
                raise ValueError(
                    f"the query family needs workload scheme in "
                    f"{QUERY_SCHEMES}, got {scheme!r}"
                )
        elif scheme is not None:
            raise ValueError("workload scheme only applies to the query family")
        if "fail_fraction" in self.workload and "failures" not in families:  # type: ignore[operator]
            raise ValueError(
                "workload fail_fraction only applies to the failures family"
            )

    def __hash__(self) -> int:
        # the generated field-based hash would choke on the params dict
        return hash(self.key())

    # ------------------------------------------------------------------
    @property
    def is_time_series(self) -> bool:
        return self.duration is not None

    @property
    def is_des(self) -> bool:
        return self.des is not None

    def resolved_params(self) -> CARDParams:
        """The full CARD parameter set this cell runs with."""
        return CARDParams.from_dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "v": SPEC_VERSION,
            "topology": self.topology.to_dict(),
            "params": dict(self.params),
            "seed": int(self.seed),
            "metrics": list(self.metrics),
        }
        if self.num_sources is not None:
            out["num_sources"] = int(self.num_sources)
        if self.duration is not None:
            out["duration"] = float(self.duration)
        if self.mobility is not None:
            out["mobility"] = self.mobility.to_dict()
        if self.workload is not None:
            out["workload"] = dict(self.workload)
        if self.full_selection:
            out["full_selection"] = True
        if self.des is not None:
            out["des"] = self.des.to_dict()
        # ``regime`` is derived — never serialised, never hashed.
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CellSpec":
        kwargs = dict(data)
        _check_version("cell", kwargs.pop("v", SPEC_VERSION))
        kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])  # type: ignore[arg-type]
        if kwargs.get("mobility") is not None:
            kwargs["mobility"] = MobilitySpec.from_dict(kwargs["mobility"])  # type: ignore[arg-type]
        if kwargs.get("des") is not None:
            kwargs["des"] = DesSpec.from_dict(kwargs["des"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def key(self) -> str:
        """Stable content hash identifying this cell in a result store."""
        return content_hash(self.to_dict())


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseSpec:
    """One labeled variant of a campaign — for sweeps a grid can't express.

    A case bundles parameter overrides with an optional per-case topology
    (Fig 9's per-size configurations), mobility model (the mobility-model
    ablation) or workload delta (one discovery scheme per case).  Cases
    expand like an extra outer axis: ``cases × grid × seeds``.

    ``label`` is spec-level identity for reducers and reports only — it
    never enters the cell content hash, so relabeling keeps stored
    results valid.
    """

    label: str
    params: Mapping[str, object] = field(default_factory=dict)
    topology: Optional[TopologySpec] = None
    mobility: Optional[MobilitySpec] = None
    workload: Optional[Mapping[str, object]] = None
    des: Optional[DesSpec] = None

    def __post_init__(self) -> None:
        if not self.label or not isinstance(self.label, str):
            raise ValueError("a case needs a non-empty string label")
        object.__setattr__(
            self,
            "params",
            {k: _json_value(k, v) for k, v in dict(self.params).items()},
        )
        if self.workload is not None:
            object.__setattr__(
                self,
                "workload",
                {k: _json_value(k, v) for k, v in dict(self.workload).items()},
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"label": self.label}
        if self.params:
            out["params"] = dict(self.params)
        if self.topology is not None:
            out["topology"] = self.topology.to_dict()
        if self.mobility is not None:
            out["mobility"] = self.mobility.to_dict()
        if self.workload is not None:
            out["workload"] = dict(self.workload)
        if self.des is not None:
            out["des"] = self.des.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CaseSpec":
        kwargs = dict(data)
        if kwargs.get("topology") is not None:
            kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])  # type: ignore[arg-type]
        if kwargs.get("mobility") is not None:
            kwargs["mobility"] = MobilitySpec.from_dict(kwargs["mobility"])  # type: ignore[arg-type]
        if kwargs.get("des") is not None:
            kwargs["des"] = DesSpec.from_dict(kwargs["des"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: (cases ×) topologies × parameter grid × seeds.

    Attributes
    ----------
    name, description:
        Identity for reports and store metadata.
    topologies:
        One or more :class:`TopologySpec` recipes.  May be empty when
        every case carries its own topology.
    base_params:
        :class:`CARDParams` overrides shared by every cell.
    grid:
        Parameter name → list of values; the Cartesian product over
        (sorted) grid axes is taken, each combination layered on top of
        ``base_params``.
    cases:
        Labeled variants (see :class:`CaseSpec`); case params layer on
        top of the grid combination, and a case may override topology,
        mobility or workload.  Empty = one implicit unlabeled case.
    seeds:
        Root seeds; every (case, topology, combination) runs once per
        seed.
    metrics:
        Metric families recorded per cell (see :data:`METRIC_FAMILIES`).
    num_sources:
        Measure a reproducible sample of this many source nodes
        (None = all nodes).
    duration, mobility:
        Switch the campaign's cells to the time-series regime
        (:class:`MobilitySpec` may also come per case).
    des:
        Switch the campaign's cells to the event-driven regime
        (:class:`DesSpec` may also come per case; a case's spec wins).
    workload:
        Query-workload knobs shared by every cell; a case's workload is
        merged on top.
    full_selection:
        See :attr:`CellSpec.full_selection`.
    """

    name: str
    topologies: Tuple[TopologySpec, ...] = ()
    base_params: Mapping[str, object] = field(default_factory=dict)
    grid: Mapping[str, Sequence[object]] = field(default_factory=dict)
    cases: Tuple[CaseSpec, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    metrics: Tuple[str, ...] = ("reachability",)
    num_sources: Optional[int] = None
    duration: Optional[float] = None
    mobility: Optional[MobilitySpec] = None
    workload: Optional[Mapping[str, object]] = None
    full_selection: bool = False
    des: Optional[DesSpec] = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(
            self,
            "base_params",
            {k: _json_value(k, v) for k, v in dict(self.base_params).items()},
        )
        for axis, axis_values in dict(self.grid).items():
            _reject_bare_string(f"grid axis {axis!r}", axis_values)
        _reject_bare_string("seeds", self.seeds)
        _reject_bare_string("metrics", self.metrics)
        object.__setattr__(
            self,
            "grid",
            {k: _json_value(k, list(v)) for k, v in dict(self.grid).items()},
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.topologies and not (
            self.cases and all(c.topology is not None for c in self.cases)
        ):
            raise ValueError(
                "a campaign needs at least one topology (either spec-level "
                "or one per case)"
            )
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        overlap = set(self.grid) & set(self.base_params)
        if overlap:
            raise ValueError(
                f"grid axes {sorted(overlap)} also appear in base_params; "
                "name each knob in exactly one place"
            )
        labels = [c.label for c in self.cases]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate case labels: {dupes}")
        for case in self.cases:
            overlap = set(case.params) & set(self.grid)
            if overlap:
                raise ValueError(
                    f"case {case.label!r} overrides grid axes "
                    f"{sorted(overlap)}; name each knob in exactly one place"
                )

    # ------------------------------------------------------------------
    def grid_combinations(self) -> List[Dict[str, object]]:
        """Cartesian product of the grid axes, in sorted-axis order."""
        axes = sorted(self.grid)
        if not axes:
            return [{}]
        return [
            dict(zip(axes, values))
            for values in product(*(self.grid[a] for a in axes))
        ]

    def labeled_cells(self) -> List[Tuple[Optional[str], CellSpec]]:
        """(case label, cell) pairs, deterministically ordered.

        The label is ``None`` for campaigns without cases.  This is the
        single expansion path: :meth:`expand` is its label-free view, so
        a reducer looking cells up by case label always agrees with what
        the runner executed.
        """
        out: List[Tuple[Optional[str], CellSpec]] = []
        cases: Sequence[Optional[CaseSpec]] = self.cases or (None,)
        for case in cases:
            if case is not None and case.topology is not None:
                topologies: Tuple[TopologySpec, ...] = (case.topology,)
            else:
                topologies = self.topologies
            mobility = (
                case.mobility
                if case is not None and case.mobility is not None
                else self.mobility
            )
            des = (
                case.des
                if case is not None and case.des is not None
                else self.des
            )
            workload: Optional[Dict[str, object]] = None
            if self.workload is not None or (
                case is not None and case.workload is not None
            ):
                workload = {
                    **(dict(self.workload) if self.workload else {}),
                    **(dict(case.workload) if case and case.workload else {}),
                }
            for topo in topologies:
                for combo in self.grid_combinations():
                    params = {
                        **self.base_params,
                        **combo,
                        **(case.params if case is not None else {}),
                    }
                    for seed in self.seeds:
                        out.append(
                            (
                                case.label if case is not None else None,
                                CellSpec(
                                    topology=topo,
                                    params=params,
                                    seed=seed,
                                    metrics=self.metrics,
                                    num_sources=self.num_sources,
                                    duration=self.duration,
                                    mobility=mobility,
                                    workload=workload,
                                    full_selection=self.full_selection,
                                    des=des,
                                ),
                            )
                        )
        return out

    def expand(self) -> List[CellSpec]:
        """All cells of the campaign, deterministically ordered."""
        return [cell for _, cell in self.labeled_cells()]

    def unique_cells(self) -> Dict[str, CellSpec]:
        """Key → cell over the expansion, first occurrence wins.

        Duplicate cells (repeated seeds, repeated topology entries) share
        a content hash and collapse onto one entry; this is the cell set
        the runner executes and the aggregator reads.
        """
        cells: Dict[str, CellSpec] = {}
        for cell in self.expand():
            cells.setdefault(cell.key(), cell)
        return cells

    @property
    def num_cells(self) -> int:
        """Cells in the expansion (duplicates counted, as ``expand``)."""
        combos = 1
        for values in self.grid.values():
            combos *= len(values)
        per_case = []
        for case in self.cases or (None,):
            n_topo = (
                1
                if case is not None and case.topology is not None
                else len(self.topologies)
            )
            per_case.append(n_topo * combos * len(self.seeds))
        return sum(per_case)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "v": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "topologies": [t.to_dict() for t in self.topologies],
            "base_params": dict(self.base_params),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "num_sources": self.num_sources,
        }
        if self.cases:
            out["cases"] = [c.to_dict() for c in self.cases]
        if self.duration is not None:
            out["duration"] = float(self.duration)
        if self.mobility is not None:
            out["mobility"] = self.mobility.to_dict()
        if self.workload is not None:
            out["workload"] = dict(self.workload)
        if self.full_selection:
            out["full_selection"] = True
        if self.des is not None:
            out["des"] = self.des.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        kwargs = dict(data)
        _check_version("campaign", kwargs.pop("v", SPEC_VERSION))
        kwargs["topologies"] = tuple(
            TopologySpec.from_dict(t) for t in kwargs["topologies"]  # type: ignore[union-attr]
        )
        if kwargs.get("cases"):
            kwargs["cases"] = tuple(
                CaseSpec.from_dict(c) for c in kwargs["cases"]  # type: ignore[union-attr]
            )
        if kwargs.get("mobility") is not None:
            kwargs["mobility"] = MobilitySpec.from_dict(kwargs["mobility"])  # type: ignore[arg-type]
        if kwargs.get("des") is not None:
            kwargs["des"] = DesSpec.from_dict(kwargs["des"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
