"""The spec codec: every spec field declares its emission rule once and
``to_dict`` / ``from_dict`` / coercion are derived from it.

* pinned cell dicts and keys covering every only-when-set branch, so a
  codec change that moves any stored cell's hash fails here;
* a campaign JSON as earlier builds wrote it still loads;
* malformed JSON and ill-typed integers fail with a ``ValueError`` that
  names the spec, never with a Python-internal error or a silently
  truncated hash;
* ``from_dict(json(to_dict(x))) == x`` with an unchanged hash, for every
  spec class.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import spec as spec_module
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.spec import (
    MOBILITY_MODELS,
    QUERY_SCHEMES,
    SERIES_METRIC_FAMILIES,
    CampaignSpec,
    CaseSpec,
    CellSpec,
    DesSpec,
    MobilitySpec,
    TopologySpec,
    content_hash,
)

TOPO = {"kind": "standard", "num_nodes": 60, "salt": "pin"}


def cell(**fields) -> dict:
    """A canonical cell dict: the always-emitted keys plus ``fields``."""
    base = {"v": 1, "topology": TOPO, "params": {}, "seed": 0, "metrics": ["reachability"]}
    return {**base, **fields}


#: cell dict → key, as written by the build before the derived codec
PINNED_CELLS = {
    "snapshot_plain": (
        cell(params={"R": 2, "noc": 3}),
        "90c20d93ad1c4f71e0c5ba52e0ff7565cc88d12650b5cd3938fbffa1ce581e8b",
    ),
    "num_sources": (
        cell(params={"r": 5}, seed=1, num_sources=10),
        "24ba3221fa61cf724b4cb7b7bc500baa4085c0ae6a746e60e00fc667a17a2a62",
    ),
    "series_rwp": (
        cell(
            seed=2,
            metrics=["series", "contacts"],
            duration=8.0,
            mobility={"model": "rwp", "min_speed": 0.5, "max_speed": 5.0, "pause": 1.0},
        ),
        "1d5c81c55139c5d2e04057ca795bbd234f0f9ab026471fae1a44c25731822805",
    ),
    "series_walk": (
        cell(
            metrics=["series"],
            duration=4.0,
            mobility={"model": "walk", "min_speed": 1.0, "max_speed": 3.0, "mean_epoch": 2.5},
        ),
        "86341d50234448839ea65690f1b008ae34e707e7e56fa5bae1151e410abc3aa7",
    ),
    "series_gauss_markov": (
        cell(
            metrics=["churn"],
            duration=4.0,
            mobility={"model": "gauss_markov", "alpha": 0.9, "mean_speed": 2.0, "sigma": 1.5},
        ),
        "a36fb7828952ac8cf31b94388360fe3e7d597fbe41ad901a4ec0b2b75a9e648b",
    ),
    "workload_query": (
        cell(metrics=["query"], workload={"num_queries": 25, "scheme": "dsq"}),
        "46fc139a688a7dd74009c7b97b262e7379bd88c98698f8cd9c69b7a1667c77ee",
    ),
    "workload_failures": (
        cell(seed=3, metrics=["failures"], workload={"num_queries": 10, "fail_fraction": 0.2}),
        "e27a85af33388521da2c1f30a4bffe30e2c2fea0dd415f751745a58ff322ca60",
    ),
    "full_selection": (
        cell(params={"depth": 2}, num_sources=15, full_selection=True),
        "c454286defd3ac7bc0f60c20687a894fdd1ad42c4ae0e314ff8f9e9cf2f64c93",
    ),
    "des_no_bandwidth": (
        cell(
            metrics=["des"],
            des={
                "latency": 0.01, "jitter": 0.002, "loss": 0.05, "duration": 5.0,
                "num_queries": 8, "query_timeout": 1.0, "retries": 1,
            },
        ),
        "ddc667bc1fb5ba315686d17215ff1b26a7e2a3cde98ccb9d9654919f0c2a7342",
    ),
    "des_bandwidth_mobile": (
        cell(
            metrics=["des"],
            des={
                "latency": 0.002, "jitter": 0.0, "loss": 0.0, "bandwidth": 1000000.0,
                "duration": 10.0, "num_queries": 20, "query_timeout": 1.0, "retries": 2,
            },
            mobility={"model": "rwp", "min_speed": 0.5, "max_speed": 5.0, "pause": 2.0},
        ),
        "a3474eb7a9dd830748b3d60d93fd22cc14b5aa323b7d6909a5664ac82c2bf216",
    ),
    "tuple_salt": (
        cell(topology={"kind": "standard", "num_nodes": 60, "salt": ["fig10", 3]}),
        "0799d9bca340853fbd9201c49e16bffb7f537ca259d7723a2a8bc176cb7740c8",
    ),
    "explicit_area": (
        cell(
            topology={
                "kind": "explicit", "num_nodes": 90, "area": [300.0, 250.0],
                "tx_range": 50.0, "salt": ["fig9", 300],
            },
            metrics=["reachability", "overhead"],
        ),
        "7c56394ee8ae9bc3f596169a9caa624aa937c62bac0a23dee6a2e27702d28b63",
    ),
    "standard_area_range": (
        cell(
            topology={
                "kind": "standard", "num_nodes": 100, "area": [400.0, 400.0],
                "tx_range": 70.0, "salt": "campaign",
            },
            seed=4,
        ),
        "65fd5cd7b8b319c4b42628175f772d13377699ac94b150400735ac75ab0e1d47",
    ),
    "scenario_override": (
        cell(
            topology={"kind": "scenario", "scenario": 3, "num_nodes": 80, "salt": "campaign"},
            metrics=["topology"],
        ),
        "a29e278da341d702d0ce4633995e61a101dddca2c69c503df276fc3fbd0ff94b",
    ),
    "scenario_plain": (
        cell(
            topology={"kind": "scenario", "scenario": 5, "salt": "campaign"},
            seed=1,
            metrics=["topology"],
        ),
        "fb1d15db9268590c6128fe6c29f503cbe95e346c1363fe3b49f8ce0a5523bb58",
    ),
}

#: a campaign file as earlier builds saved it (``num_sources`` null and
#: ``description`` empty are always written), with its cell keys
OLD_CAMPAIGN_JSON = """{
 "base_params": {"R": 2},
 "cases": [
  {"label": "plain"},
  {"label": "wide", "params": {"r": 6},
   "topology": {"kind": "standard", "num_nodes": 80, "salt": "wide"}}
 ],
 "description": "",
 "grid": {"noc": [2, 3]},
 "metrics": ["reachability"],
 "name": "pinned",
 "num_sources": null,
 "seeds": [0, 1],
 "topologies": [{"kind": "standard", "num_nodes": 60, "salt": "pin"}],
 "v": 1
}"""
OLD_CAMPAIGN_KEYS = [
    "3da56fe8dd3395a6620644ada52f07ca2af3b0b50307abd4b7c93b1e7f807951",
    "2b971e99e5fd2e41d007a37cfeb2bce8adeee895fc7f781848fba112ed306275",
    "90c20d93ad1c4f71e0c5ba52e0ff7565cc88d12650b5cd3938fbffa1ce581e8b",
    "f7129f6ed277970c27675d89d40f53787d28d7f58b4ced8172e2045e1544a5e7",
    "6ddddef65aa8ed2e588917db8e8a62061a235b7640d2146ea33f78d43f912026",
    "572b830b349977006d8453612c0e748ad7f325ee11e738218ef37df7a2481b49",
    "bf34af4eb3a62817e600c0f58da1b0486220e5137f5c018d2f90ba812fa57b68",
    "3897379ab4b63cf2f765f05275bdcd73b1785c295239ee7a747c652471aee918",
]


# ----------------------------------------------------------------------
class TestPinnedHashes:
    @pytest.mark.parametrize("name", sorted(PINNED_CELLS))
    def test_cell_dict_and_key_unchanged(self, name):
        data, key = PINNED_CELLS[name]
        spec = CellSpec.from_dict(data)
        assert spec.key() == key
        assert spec.to_dict() == data

    def test_old_campaign_json_loads_with_same_cells(self):
        spec = CampaignSpec.from_json(OLD_CAMPAIGN_JSON)
        assert spec.num_sources is None and spec.description == ""
        assert [c.key() for c in spec.expand()] == OLD_CAMPAIGN_KEYS
        assert spec.to_dict() == json.loads(OLD_CAMPAIGN_JSON)


# ----------------------------------------------------------------------
class TestMalformedInput:
    def test_campaign_with_only_case_topologies_loads(self, tmp_path):
        spec = CampaignSpec(
            name="cases-only",
            cases=(CaseSpec(label="a", topology=TopologySpec(num_nodes=60)),),
        )
        data = spec.to_dict()
        del data["topologies"]  # a hand-written file may leave the default out
        assert CampaignSpec.from_dict(data) == spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        # cells missing from a fresh store: exit 2, not a load error (1)
        assert campaign_main(["status", str(path), "--store", str(tmp_path / "s.jsonl")]) == 2

    @pytest.mark.parametrize(
        "cls, kind, data",
        [
            (TopologySpec, "topology", {"kind": "standard"}),
            (CaseSpec, "case", {"label": "a"}),
            (CellSpec, "cell", cell()),
            (CampaignSpec, "campaign", {"name": "x", "topologies": [TOPO]}),
        ],
    )
    def test_unknown_keys_named(self, cls, kind, data):
        with pytest.raises(
            ValueError, match=rf"unknown {kind} keys \['nodes'\]; known: \[.*'\]$"
        ):
            cls.from_dict({**data, "nodes": 5})

    def test_missing_required_key_named(self):
        data = cell()
        del data["topology"]
        with pytest.raises(ValueError, match=r"missing cell keys \['topology'\]"):
            CellSpec.from_dict(data)
        with pytest.raises(ValueError, match=r"missing campaign keys \['name'\]"):
            CampaignSpec.from_dict({"topologies": [TOPO]})

    @pytest.mark.parametrize("topology", ["standard", None])
    def test_non_object_rejected(self, topology):
        with pytest.raises(ValueError, match="topology spec must be a JSON object"):
            CellSpec.from_dict(cell(topology=topology))

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (CellSpec, dict(seed=1.7)),  # would hash as seed=1
            (CellSpec, dict(seed=True)),
            (CellSpec, dict(num_sources=-3)),
            (CellSpec, dict(metrics=("comparison",), workload={"num_queries": True})),
            (TopologySpec, dict(num_nodes=5.5)),
            (TopologySpec, dict(num_nodes=-5)),
            (TopologySpec, dict(kind="scenario", scenario=2.0)),
            (CampaignSpec, dict(seeds=(1.9,))),
            (CampaignSpec, dict(num_sources=0)),
            (DesSpec, dict(num_queries=True)),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(v),
    )
    def test_integers_are_not_truncated_or_aliased(self, cls, kwargs):
        required = {
            CellSpec: dict(topology=TopologySpec()),
            CampaignSpec: dict(name="x", topologies=(TopologySpec(),)),
        }.get(cls, {})
        with pytest.raises(ValueError, match="num_queries|integer|>= 1"):
            cls(**required, **kwargs)

    def test_spec_field_without_emit_rule_fails_at_class_creation(self):
        with pytest.raises(TypeError, match=r"Probe\.extra declares no serialisation"):

            @spec_module._spec("probe")
            class Probe(spec_module._Spec):
                kept: int = spec_module._field(0, emit="always")
                extra: int = 0


# ----------------------------------------------------------------------
floats = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)
param_maps = st.dictionaries(
    st.sampled_from(["R", "r", "noc", "depth", "method"]),
    st.integers(0, 50) | floats | st.sampled_from(["EM", "PM"]),
    max_size=3,
)
salts = st.text(min_size=1, max_size=6) | st.tuples(
    st.text(max_size=4), st.integers(-5, 5000)
)


@st.composite
def mobility_specs(draw):
    model = draw(st.sampled_from(sorted(MOBILITY_MODELS)))
    return MobilitySpec(model=model, **{f: draw(floats) for f in MOBILITY_MODELS[model]})


des_specs = st.builds(
    DesSpec,
    latency=floats,
    jitter=floats,
    loss=st.floats(0.0, 1.0),
    bandwidth=st.none() | positive,
    duration=positive,
    num_queries=st.integers(0, 500),
    query_timeout=positive,
    retries=st.integers(0, 5),
)


@st.composite
def topology_specs(draw):
    kind = draw(st.sampled_from(["standard", "scenario", "explicit"]))
    num_nodes = draw(st.none() | st.integers(1, 20_000))
    salt = draw(salts)
    if kind == "scenario":
        return TopologySpec(
            kind=kind, scenario=draw(st.integers(1, 12)), num_nodes=num_nodes, salt=salt
        )
    area = (draw(positive), draw(positive))
    tx_range = draw(positive)
    if kind == "explicit":
        return TopologySpec(
            kind=kind, num_nodes=num_nodes or 1, area=area, tx_range=tx_range, salt=salt
        )
    return TopologySpec(
        kind=kind,
        num_nodes=num_nodes,
        area=draw(st.none() | st.just(area)),
        tx_range=draw(st.none() | st.just(tx_range)),
        salt=salt,
    )


@st.composite
def workloads(draw, family):
    workload = {"num_queries": draw(st.integers(1, 500))}
    if family == "query":
        workload["scheme"] = draw(st.sampled_from(QUERY_SCHEMES))
    if family == "failures" and draw(st.booleans()):
        workload["fail_fraction"] = draw(st.floats(0.0, 1.0))
    return workload


@st.composite
def cell_specs(draw):
    regime = draw(st.sampled_from(["snapshot", "series", "des", "workload"]))
    kwargs: dict = {}
    if regime == "snapshot":
        metrics = draw(
            st.lists(
                st.sampled_from(["topology", "reachability", "overhead", "overlap", "tradeoff"]),
                min_size=1, max_size=3, unique=True,
            )
        )
        kwargs["full_selection"] = draw(st.booleans())
    elif regime == "series":
        metrics = draw(st.lists(st.sampled_from(SERIES_METRIC_FAMILIES), min_size=1, unique=True))
        kwargs.update(duration=draw(positive), mobility=draw(mobility_specs()))
    elif regime == "des":
        metrics = ["des"]
        kwargs.update(des=draw(des_specs), mobility=draw(st.none() | mobility_specs()))
    else:
        family = draw(st.sampled_from(["comparison", "query", "failures"]))
        metrics = [family]
        kwargs["workload"] = draw(workloads(family))
    if regime != "des":
        kwargs["num_sources"] = draw(st.none() | st.integers(1, 500))
    return CellSpec(
        topology=draw(topology_specs()),
        params=draw(param_maps),
        seed=draw(st.integers(0, 2**32 - 1)),
        metrics=tuple(metrics),
        **kwargs,
    )


@st.composite
def case_specs(draw, label, grid_axes):
    return CaseSpec(
        label=label,
        params={k: v for k, v in draw(param_maps).items() if k not in grid_axes},
        topology=draw(st.none() | topology_specs()),
        mobility=draw(st.none() | mobility_specs()),
        workload=draw(st.none() | workloads("query")),
        des=draw(st.none() | des_specs),
    )


@st.composite
def campaign_specs(draw):
    grid = draw(
        st.dictionaries(
            st.sampled_from(["noc", "r", "depth"]),
            st.lists(st.integers(1, 9), min_size=1, max_size=3),
            max_size=2,
        )
    )
    labels = draw(st.lists(st.text(min_size=1, max_size=5), unique=True, max_size=3))
    cases = tuple(draw(case_specs(label, set(grid))) for label in labels)
    return CampaignSpec(
        name=draw(st.text(max_size=8)),
        topologies=tuple(draw(st.lists(topology_specs(), min_size=1, max_size=2))),
        base_params={k: v for k, v in draw(param_maps).items() if k not in grid},
        grid=grid,
        cases=cases,
        seeds=tuple(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))),
        metrics=tuple(
            draw(st.lists(st.sampled_from(["reachability", "overhead"]), min_size=1, unique=True))
        ),
        num_sources=draw(st.none() | st.integers(1, 500)),
        duration=draw(st.none() | positive),
        mobility=draw(st.none() | mobility_specs()),
        workload=draw(st.none() | workloads("comparison")),
        full_selection=draw(st.booleans()),
        des=draw(st.none() | des_specs),
        description=draw(st.text(max_size=10)),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=mobility_specs()
        | des_specs
        | topology_specs()
        | cell_specs()
        | st.text(min_size=1, max_size=4).flatmap(lambda l: case_specs(l, set()))
        | campaign_specs()
    )
    def test_json_round_trip_is_identity_and_keeps_the_hash(self, spec):
        data = spec.to_dict()
        clone = type(spec).from_dict(json.loads(json.dumps(data)))
        assert clone == spec
        assert content_hash(clone.to_dict()) == content_hash(data)
        if isinstance(spec, CellSpec):
            assert clone.key() == spec.key()
