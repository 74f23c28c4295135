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
is what makes re-runs cache hits and ``resume`` incremental.

Every spec field is declared once, with its serialisation rule in
``field(metadata={"emit": …})``, and :func:`_spec` derives ``to_dict``,
``from_dict`` and the field coercions from it.  A new field declares
``emit="when_set"`` — written only while it differs from its default —
which is what keeps every existing cell hash, so every store, warm.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
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
    "coerce_seed",
    "coerce_seeds",
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
EXCLUSIVE_METRIC_FAMILIES = frozenset({"smallworld", "comparison", "query", "failures"})

#: All metric families a cell can record.
METRIC_FAMILIES = SNAPSHOT_METRIC_FAMILIES + SERIES_METRIC_FAMILIES + DES_METRIC_FAMILIES
_KNOWN_FAMILIES = frozenset(METRIC_FAMILIES)
_SNAPSHOT_FAMILIES = frozenset(SNAPSHOT_METRIC_FAMILIES)
_SERIES_FAMILIES = frozenset(SERIES_METRIC_FAMILIES)

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


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_value(name: str, value: object) -> object:
    """Coerce a parameter value to its canonical JSON form.

    Enum members become their values (what ``CARDParams.from_dict``
    accepts back) and numpy scalars their Python equivalents, so the
    content hash of a programmatically-built spec matches the hash of
    the same spec round-tripped through JSON.  Anything not representable
    is rejected here, with the knob named, instead of surfacing as an
    opaque ``TypeError`` from ``json.dumps`` inside ``key()``.
    """
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return _json_value(name, value.value)
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


def _reject_bare_string(field_name: str, values: object) -> None:
    """A string where a list belongs would be iterated per character."""
    if isinstance(values, (str, bytes)):
        raise ValueError(
            f"{field_name} must be a list of values, got the bare string "
            f"{values!r} (wrap it: [{values!r}])"
        )


# ----------------------------------------------------------------------
# field coercions: ``(label, value) -> canonical value``, raising
# ValueError for a bad value; ``label`` is "<spec kind> <field name>"
# ----------------------------------------------------------------------
def _number(kind: type, lo: float = -math.inf, hi: float = math.inf, *, strict=False):
    """Coercion to ``kind`` (int or float) in ``[lo, hi]`` (``(lo, hi]`` when
    ``strict``).  Bools, NaN and — for ints — non-integral values, which
    ``int()`` would truncate into the hash, are rejected."""
    abc, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    bounds = [f"{'>' if strict else '>='} {lo:g}"] if lo > -math.inf else []
    bounds += [f"<= {hi:g}"] if hi < math.inf else []
    what = " and ".join(bounds) or noun

    def coerce(label: str, value: object):
        if type(value) is not kind:
            if isinstance(value, bool) or not isinstance(value, abc):
                raise ValueError(f"{label} must be {noun}, got {value!r}")
            value = kind(value)
        if not (lo < value <= hi if strict else lo <= value <= hi):
            raise ValueError(f"{label} must be {what}, got {value!r}")
        return value

    return coerce


def _tuple(label: str, values: object, item=None) -> tuple:
    _reject_bare_string(label, values)
    if not isinstance(values, Iterable):
        raise ValueError(f"{label} must be a list of values, got {values!r}")
    return tuple(values if item is None else (item(label, v) for v in values))  # type: ignore


_int, _float = partial(_number, int), partial(_number, float)
_ints, _floats = partial(_tuple, item=_int()), partial(_tuple, item=_float())
_count = _int(1)

#: The seed rules of :class:`CellSpec` and :class:`CampaignSpec`, for
#: callers that take seeds before any spec exists (``repro.api.run``).
coerce_seed = partial(_int(), "seed")
coerce_seeds = partial(_ints, "seeds")


def _json_map(label: str, mapping: object) -> Dict[str, object]:
    return {k: _json_value(k, v) for k, v in dict(mapping).items()}  # type: ignore[call-overload]


def _json_grid(label: str, grid: object) -> Dict[str, object]:
    axes = dict(grid).items()  # type: ignore[call-overload]
    return {k: _json_value(k, list(_tuple(f"grid axis {k!r}", v))) for k, v in axes}


def _salt(label: str, salt: object) -> Union[str, Tuple[object, ...]]:
    if isinstance(salt, str):
        return salt
    parts = _tuple(label, salt)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (str, numbers.Integral)):
            raise ValueError(f"salt parts must be strings or ints, got {part!r}")
    return tuple(p if isinstance(p, str) else int(p) for p in parts)


def _metrics(label: str, values: object) -> Tuple[str, ...]:
    metrics = _tuple(label, values)
    if not _KNOWN_FAMILIES.issuperset(metrics):
        unknown = sorted(set(metrics) - _KNOWN_FAMILIES)
        raise ValueError(f"unknown metric families {unknown}; known: {METRIC_FAMILIES}")
    if not metrics:
        raise ValueError(f"{label} must name at least one metric family")
    return metrics


def _dump_specs(specs: Sequence["_Spec"]) -> List[Dict[str, object]]:
    return [spec.to_dict() for spec in specs]


#: How ``to_dict`` writes back what each coercion produced (default: as is).
_DUMPS = {
    _tuple: list,
    _ints: list,
    _floats: list,
    _metrics: list,
    _json_map: dict,
    _json_grid: lambda grid: {k: list(v) for k, v in grid.items()},
    _salt: lambda salt: salt if isinstance(salt, str) else list(salt),
}


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
_EMIT = ("always", "when_set", "never")


def _field(default=MISSING, *, emit: str, factory=MISSING, spec=None, coerce=None):
    """Declare a spec field once.  ``emit`` says when ``to_dict`` writes it:
    ``"always"``, ``"when_set"`` (only while it differs from its default —
    what a new field must use, so existing hashes stay put) or ``"never"``.
    ``spec`` names a nested spec type (a tuple of them with ``coerce=_tuple``)
    for ``from_dict``; ``coerce(label, value)`` validates and canonicalises
    the value at construction, except a value that *is* the default."""
    meta = {"emit": emit, "spec": spec, "coerce": coerce}
    return field(default=default, default_factory=factory, metadata=meta)


class _Spec:
    """Base of the spec dataclasses; :func:`_spec` derives the rest."""

    def __post_init__(self) -> None:
        """Replaced by the derived one; declared so ``__init__`` calls it."""

    def _validate(self) -> None:
        """Checks that involve several fields (per-field ones are declared)."""

    #: emission hook ``(field values) -> names`` serialised and accepted
    #: back for those values; None = every field by its ``emit`` rule
    _emitted = None


def _spec(kind: str, *, versioned: bool = False):
    """Class decorator: a frozen dataclass whose ``__post_init__``,
    ``to_dict`` and ``from_dict`` are derived once, at class creation, from
    its field metadata — where a field without ``emit`` is a ``TypeError``.
    ``versioned`` specs write ``"v"`` and refuse any other version."""

    def make(cls):
        cls = dataclass(frozen=True)(cls)
        defaults: Dict[str, object] = {}
        coercions, always, when_set, nested = [], [], [], []
        for f in fields(cls):
            meta = f.metadata
            if meta.get("emit") not in _EMIT:
                rule = f"use _field(..., emit=...) with emit in {_EMIT}"
                raise TypeError(f"{cls.__name__}.{f.name} declares no serialisation rule: {rule}")
            default = f.default if f.default_factory is MISSING else f.default_factory()
            defaults[f.name] = default
            label, spec, coerce = f"{kind} {f.name}", meta["spec"], meta["coerce"]
            if coerce is not None:
                coercions.append((f.name, label, default, coerce))
            dump = _DUMPS.get(coerce)
            if spec is not None:
                nested.append((f.name, label, spec, coerce is _tuple))
                dump = _dump_specs if coerce is _tuple else spec.to_dict
            if meta["emit"] == "always":
                always.append((f.name, dump))
            elif meta["emit"] == "when_set":
                when_set.append((f.name, default, dump))
        required = frozenset(n for n, d in defaults.items() if d is MISSING)
        validate, emitted = cls._validate, cls._emitted

        def __post_init__(self) -> None:
            values = self.__dict__  # frozen: write as the dataclass __init__ does
            for name, label, default, coerce in coercions:
                value = values[name]
                if value is not default:  # declared defaults are canonical
                    values[name] = coerce(label, value)
            validate(self)

        def to_dict(self) -> Dict[str, object]:
            out: Dict[str, object] = {"v": SPEC_VERSION} if versioned else {}
            values = self.__dict__
            for name, dump in always:
                out[name] = values[name] if dump is None else dump(values[name])
            for name, default, dump in when_set:
                value = values[name]
                if value is not default and value != default:
                    out[name] = value if dump is None else dump(value)
            if emitted:
                return {name: out[name] for name in emitted(values)}
            return out

        def check_keys(kwargs: Dict[str, object], known) -> None:
            unknown, missing = kwargs.keys() - set(known), required - kwargs.keys()
            for problem, keys in (("unknown", unknown), ("missing", missing)):
                if keys:
                    raise ValueError(
                        f"{problem} {kind} keys {sorted(keys)}; known: {sorted(known)}"
                    ) from None

        def from_dict(data: Mapping[str, object]):
            if type(data) is not dict and not isinstance(data, Mapping):
                raise ValueError(f"a {kind} spec must be a JSON object, got {data!r}")
            kwargs = dict(data)
            version = kwargs.pop("v", SPEC_VERSION) if versioned else SPEC_VERSION
            if version != SPEC_VERSION:
                raise ValueError(
                    f'{kind} spec "v": {version!r} not supported '
                    f"(this build reads v{SPEC_VERSION})"
                )
            if emitted:
                check_keys(kwargs, emitted(kwargs))
            for name, label, spec, many in nested:
                value = kwargs.get(name)
                if value is None and name not in required:
                    continue
                if many:
                    kwargs[name] = tuple(spec.from_dict(v) for v in _tuple(label, value))
                elif name in kwargs:
                    kwargs[name] = spec.from_dict(value)
            try:
                return cls(**kwargs)
            except TypeError:  # what the dataclass __init__ raises on bad keys
                check_keys(kwargs, defaults)
                raise

        cls.__post_init__, cls.to_dict = __post_init__, to_dict
        cls.from_dict = staticmethod(from_dict)
        return cls

    return make


# ----------------------------------------------------------------------
#: Known mobility models and the :class:`MobilitySpec` fields each reads.
MOBILITY_MODELS: Dict[str, Tuple[str, ...]] = {
    "rwp": ("min_speed", "max_speed", "pause"),
    "walk": ("min_speed", "max_speed", "mean_epoch"),
    "gauss_markov": ("alpha", "mean_speed", "sigma"),
}


@_spec("mobility")
class MobilitySpec(_Spec):
    """A declarative mobility model — how nodes move during a cell.

    Only the fields relevant to ``model`` are serialised and hashed
    (see :data:`MOBILITY_MODELS`); setting an irrelevant field to a
    non-default value is rejected, so a spec cannot silently carry a
    knob the model ignores.
    """

    model: str = _field("rwp", emit="always")
    #: random waypoint / random walk speed band (m/s)
    min_speed: float = _field(0.5, emit="always", coerce=_float())
    max_speed: float = _field(5.0, emit="always", coerce=_float())
    #: random waypoint pause at each waypoint (s)
    pause: float = _field(2.0, emit="always", coerce=_float())
    #: random walk mean leg duration (s)
    mean_epoch: float = _field(5.0, emit="always", coerce=_float())
    #: Gauss-Markov memory, mean speed and randomness
    alpha: float = _field(0.85, emit="always", coerce=_float())
    mean_speed: float = _field(2.5, emit="always", coerce=_float())
    sigma: float = _field(1.0, emit="always", coerce=_float())

    def _validate(self) -> None:
        reads = self._emitted(vars(self))
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(
                    f"mobility field {f.name!r} is not read by model "
                    f"{self.model!r} (its fields: {reads[1:]}); remove it"
                )

    @staticmethod
    def _emitted(values: Mapping[str, object]) -> Tuple[str, ...]:
        model = values.get("model", "rwp")
        if model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {model!r}; known: {sorted(MOBILITY_MODELS)}"
            )
        return ("model",) + MOBILITY_MODELS[model]  # type: ignore[index]

    # ------------------------------------------------------------------
    def factory(self):
        """The ``(positions, area, rng) -> MobilityModel`` callable
        :class:`~repro.core.runner.TimeSeriesRunner` expects: the model's
        class, given exactly the fields :data:`MOBILITY_MODELS` lists."""
        from repro.mobility.gauss_markov import GaussMarkov
        from repro.mobility.walk import RandomWalk
        from repro.mobility.waypoint import RandomWaypoint

        model = {"rwp": RandomWaypoint, "walk": RandomWalk, "gauss_markov": GaussMarkov}
        knobs = {
            ("pause_time" if f == "pause" else f): getattr(self, f)
            for f in MOBILITY_MODELS[self.model]
        }
        return lambda p, a, rng: model[self.model](p, a, rng=rng, **knobs)


# ----------------------------------------------------------------------
@_spec("des")
class DesSpec(_Spec):
    """Declarative knobs of the event-driven (``des``) regime.

    Mirrors :class:`MobilitySpec`'s role: a validated, content-hashed
    bundle the runner turns into a :class:`~repro.net.link.LinkSpec` plus
    :class:`~repro.core.des_runner.DesRunner` arguments.  The regime's
    ``duration`` lives here (not on the cell) because an event-driven run
    is meaningless without a horizon even on a static topology.
    """

    #: fixed per-hop delay (s)
    latency: float = _field(0.002, emit="always", coerce=_float(0))
    #: uniform extra per-hop delay bound (s); 0 = none
    jitter: float = _field(0.0, emit="always", coerce=_float(0))
    #: per-transmission drop probability
    loss: float = _field(0.0, emit="always", coerce=_float(0, 1))
    #: bytes/second serialization term; None disables it
    bandwidth: Optional[float] = _field(None, emit="when_set", coerce=_float(0, strict=True))
    #: simulated seconds after bootstrap
    duration: float = _field(10.0, emit="always", coerce=_float(0, strict=True))
    #: workload size (queries launched over ``[0.2, 0.8] × duration``)
    num_queries: int = _field(20, emit="always", coerce=_int(0))
    #: seconds a query waits for its reply before retrying/failing
    query_timeout: float = _field(1.0, emit="always", coerce=_float(0, strict=True))
    #: extra attempts after the first timeout
    retries: int = _field(1, emit="always", coerce=_int(0))

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


# ----------------------------------------------------------------------
@_spec("topology")
class TopologySpec(_Spec):
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

    kind: str = _field("standard", emit="always")
    num_nodes: Optional[int] = _field(None, emit="when_set", coerce=_count)
    scenario: Optional[int] = _field(None, emit="when_set", coerce=_count)
    area: Optional[Tuple[float, float]] = _field(None, emit="when_set", coerce=_floats)
    tx_range: Optional[float] = _field(None, emit="when_set", coerce=_float())
    #: topology RNG namespace.  A string, or a tuple of strings/ints for
    #: experiments that salt per swept value (e.g. ``("fig10", noc)``) —
    #: serialised as a JSON list and coerced back so the derived stream
    #: matches the legacy runners exactly.
    salt: Union[str, Tuple[object, ...]] = _field("campaign", emit="always", coerce=_salt)

    def _validate(self) -> None:
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
            sc = get_scenario(self.scenario)  # type: ignore[arg-type]
            n = sc.num_nodes if self.num_nodes is None else self.num_nodes
            if n == sc.num_nodes:
                return sc.build(seed)
            return Topology.uniform_random(
                n, sc.area, sc.tx_range, spawn_rng(seed, "scenario", sc.index)
            )
        if self.kind == "standard":
            given = {"num_nodes": self.num_nodes, "area": self.area, "tx_range": self.tx_range}
            kwargs = {k: v for k, v in given.items() if v is not None}
            return standard_topology(seed=seed, salt=self.salt, **kwargs)  # type: ignore[arg-type]
        return build_topology(self.num_nodes, self.area, self.tx_range, seed=seed, salt=self.salt)


# ----------------------------------------------------------------------
@_spec("cell", versioned=True)
class CellSpec(_Spec):
    """One independent unit of campaign work.

    ``params`` holds :class:`CARDParams` *overrides* (unset fields keep
    their defaults), so the hash covers exactly what the spec declares.

    A cell is a **snapshot** cell by default; setting ``duration`` and
    ``mobility`` makes it a **time-series** cell (mobility + periodic
    maintenance, metrics binned over time); setting ``des`` makes it an
    **event-driven** cell (message-level simulation with per-link
    latency/loss — the regime's duration lives inside :class:`DesSpec`,
    and ``mobility`` is optional).

    ``regime`` is a redundant declaration (``"snapshot" | "series" |
    "des"``) checked against what the other fields imply — it never
    enters the hash, it just catches a cell wired half-way into a
    regime at construction time instead of at execution time.
    """

    topology: TopologySpec = _field(emit="always", spec=TopologySpec)
    params: Mapping[str, object] = _field(emit="always", factory=dict, coerce=_json_map)
    seed: int = _field(0, emit="always", coerce=_int())
    metrics: Tuple[str, ...] = _field(("reachability",), emit="always", coerce=_metrics)
    num_sources: Optional[int] = _field(None, emit="when_set", coerce=_count)
    #: simulated seconds after bootstrap (time-series cells only)
    duration: Optional[float] = _field(None, emit="when_set", coerce=_float(0, strict=True))
    #: how nodes move during the run (time-series cells only)
    mobility: Optional[MobilitySpec] = _field(None, emit="when_set", spec=MobilitySpec)
    #: query-workload knobs for the comparison/query/failures families
    workload: Optional[Mapping[str, object]] = _field(None, emit="when_set", coerce=_json_map)
    #: run contact selection on *every* node and use ``num_sources`` only
    #: to bound the measured sample (depth ≥ 2 reachability follows
    #: contacts of non-source nodes — Fig 8's regime)
    full_selection: bool = _field(False, emit="when_set")
    #: event-driven regime knobs (event-driven cells only)
    des: Optional[DesSpec] = _field(None, emit="when_set", spec=DesSpec)
    #: optional declared regime, validated against the derived one;
    #: normalised to the derived regime and never serialised
    regime: Optional[str] = _field(None, emit="never")

    def _validate(self) -> None:
        self._validate_regime()
        if self.workload is not None:
            self._validate_workload()

    def _validate_regime(self) -> None:
        metrics = set(self.metrics)
        exclusive = metrics & EXCLUSIVE_METRIC_FAMILIES
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
            if self.mobility is None:
                raise ValueError(
                    "time-series cells need a mobility model "
                    "(set mobility=MobilitySpec(...))"
                )
            snapshot = metrics & _SNAPSHOT_FAMILIES
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
        elif series := metrics & _SERIES_FAMILIES:
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
        _count("workload num_queries", self.workload.get("num_queries"))  # type: ignore[union-attr]
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

    def key(self) -> str:
        """Stable content hash identifying this cell in a result store."""
        return content_hash(self.to_dict())


# ----------------------------------------------------------------------
@_spec("case")
class CaseSpec(_Spec):
    """One labeled variant of a campaign — for sweeps a grid can't express.

    A case bundles parameter overrides with an optional per-case topology
    (Fig 9's per-size configurations), mobility model (the mobility-model
    ablation) or workload delta (one discovery scheme per case).  Cases
    expand like an extra outer axis: ``cases × grid × seeds``.

    ``label`` is spec-level identity for reducers and reports only — it
    never enters the cell content hash, so relabeling keeps stored
    results valid.
    """

    label: str = _field(emit="always")
    params: Mapping[str, object] = _field(emit="when_set", factory=dict, coerce=_json_map)
    topology: Optional[TopologySpec] = _field(None, emit="when_set", spec=TopologySpec)
    mobility: Optional[MobilitySpec] = _field(None, emit="when_set", spec=MobilitySpec)
    workload: Optional[Mapping[str, object]] = _field(None, emit="when_set", coerce=_json_map)
    des: Optional[DesSpec] = _field(None, emit="when_set", spec=DesSpec)

    def _validate(self) -> None:
        if not self.label or not isinstance(self.label, str):
            raise ValueError("a case needs a non-empty string label")


# ----------------------------------------------------------------------
@_spec("campaign", versioned=True)
class CampaignSpec(_Spec):
    """A declarative sweep: (cases ×) topologies × parameter grid × seeds.

    Every (case, topology, grid combination) runs once per seed, and the
    regime fields (``metrics`` … ``des``) reach every cell; see
    :meth:`labeled_cells` for what a case overrides.
    """

    #: identity for reports and store metadata (with ``description``)
    name: str = _field(emit="always")
    #: topology recipes; may be empty when every case carries its own
    topologies: Tuple[TopologySpec, ...] = _field((), emit="always", spec=TopologySpec, coerce=_tuple)
    #: :class:`CARDParams` overrides shared by every cell
    base_params: Mapping[str, object] = _field(emit="always", factory=dict, coerce=_json_map)
    #: knob → values; the product over sorted axes layers on ``base_params``
    grid: Mapping[str, Sequence[object]] = _field(emit="always", factory=dict, coerce=_json_grid)
    #: labeled variants; empty = one implicit unlabeled case
    cases: Tuple[CaseSpec, ...] = _field((), emit="when_set", spec=CaseSpec, coerce=_tuple)
    seeds: Tuple[int, ...] = _field((0,), emit="always", coerce=_ints)
    metrics: Tuple[str, ...] = _field(("reachability",), emit="always", coerce=_metrics)
    #: a reproducible sample of this many source nodes (None = all nodes)
    num_sources: Optional[int] = _field(None, emit="always", coerce=_count)
    #: with ``mobility``: the time-series regime
    duration: Optional[float] = _field(None, emit="when_set", coerce=_float(0, strict=True))
    mobility: Optional[MobilitySpec] = _field(None, emit="when_set", spec=MobilitySpec)
    #: query-workload knobs; a case's workload is merged on top
    workload: Optional[Mapping[str, object]] = _field(None, emit="when_set", coerce=_json_map)
    #: see :attr:`CellSpec.full_selection`
    full_selection: bool = _field(False, emit="when_set")
    #: the event-driven regime
    des: Optional[DesSpec] = _field(None, emit="when_set", spec=DesSpec)
    description: str = _field("", emit="always")

    def _validate(self) -> None:
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
        the runner executed.  A case's topology, mobility and des replace
        the campaign's, its workload merges over the campaign's and its
        params layer over the grid combination.
        """
        out: List[Tuple[Optional[str], CellSpec]] = []
        for case in self.cases or (None,):
            over = case or _NO_CASE
            workload = None
            if self.workload is not None or over.workload is not None:
                workload = {**(self.workload or {}), **(over.workload or {})}
            shared = dict(
                metrics=self.metrics, num_sources=self.num_sources, duration=self.duration,
                mobility=over.mobility or self.mobility, des=over.des or self.des,
                workload=workload, full_selection=self.full_selection,
            )
            for topo in (over.topology,) if over.topology else self.topologies:
                for combo in self.grid_combinations():
                    params = {**self.base_params, **combo, **over.params}
                    for seed in self.seeds:
                        cell = CellSpec(topology=topo, params=params, seed=seed, **shared)
                        out.append((case and case.label, cell))
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
        topologies = sum(
            1 if case and case.topology else len(self.topologies)
            for case in self.cases or (None,)
        )
        return topologies * math.prod(map(len, self.grid.values())) * len(self.seeds)

    # ------------------------------------------------------------------
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


#: the overrides of a campaign without cases: none
_NO_CASE = CaseSpec(label="-")
