"""The event-driven (``des``) cell regime, end to end.

Covers the three layers the regime spans:

* :class:`~repro.campaign.spec.DesSpec` — validation, serialisation and
  content-hash stability (including that pre-existing snapshot/series
  cells keep their hashes);
* :class:`~repro.campaign.spec.CellSpec` regime derivation — a ``des``
  cell is mutually exclusive with the snapshot/series fields, and the
  declared ``regime`` is checked against what the fields imply;
* the campaign engine — ``des`` cells execute deterministically, cache,
  resume, shard and parallelise exactly like the other regimes.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CaseSpec,
    CellSpec,
    DesSpec,
    MobilitySpec,
    ResultStore,
    TopologySpec,
)
from repro.campaign.runner import execute_cell
from repro.core.des_runner import DesRunner
from repro.core.params import CARDParams
from repro.core.runner import TimeSeriesRunner
from repro.net.link import LinkSpec
from repro.scenarios.factory import sample_sources
from tests.conftest import line_topology

TOPO = TopologySpec(
    kind="explicit", num_nodes=60, area=(400.0, 400.0), tx_range=100.0
)
DES = DesSpec(latency=0.005, loss=0.02, duration=3.0, num_queries=8)


def des_cell(**overrides) -> CellSpec:
    kwargs = dict(
        topology=TOPO, seed=3, metrics=("des",), des=DES, num_sources=10
    )
    kwargs.update(overrides)
    return CellSpec(**kwargs)


def des_campaign(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="des-test",
        topologies=(TOPO,),
        metrics=("des",),
        des=DES,
        num_sources=10,
        grid={"noc": [3, 5]},
        seeds=(0,),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# ----------------------------------------------------------------------
class TestDesSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(latency=-0.001),
            dict(jitter=-1.0),
            dict(loss=-0.1),
            dict(loss=1.5),
            dict(bandwidth=0.0),
            dict(bandwidth=-10.0),
            dict(duration=0.0),
            dict(query_timeout=0.0),
            dict(num_queries=-1),
            dict(num_queries=2.5),
            dict(retries=-1),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DesSpec(**kwargs)

    def test_round_trip_and_bandwidth_omission(self):
        spec = DesSpec(latency=0.01, jitter=0.002, loss=0.05, duration=5.0)
        assert "bandwidth" not in spec.to_dict()
        assert DesSpec.from_dict(spec.to_dict()) == spec
        banded = DesSpec(bandwidth=1e6)
        assert banded.to_dict()["bandwidth"] == 1e6
        assert DesSpec.from_dict(banded.to_dict()) == banded

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown des keys"):
            DesSpec.from_dict({"latency": 0.01, "speed": 3})

    def test_link_spec_matches_knobs(self):
        spec = DesSpec(latency=0.01, jitter=0.002, loss=0.05, bandwidth=1e6)
        link = spec.link_spec()
        assert (link.latency, link.jitter, link.loss, link.bandwidth) == (
            0.01, 0.002, 0.05, 1e6,
        )


# ----------------------------------------------------------------------
class TestDesCellRegime:
    def test_regime_derived_and_normalised(self):
        cell = des_cell()
        assert cell.is_des and cell.regime == "des"
        assert not cell.is_time_series
        # explicit matching declaration is accepted and hash-neutral
        assert des_cell(regime="des").key() == cell.key()

    def test_declared_regime_mismatch_rejected(self):
        with pytest.raises(ValueError, match="imply 'des'"):
            des_cell(regime="snapshot")
        with pytest.raises(ValueError, match="imply 'snapshot'"):
            CellSpec(
                topology=TOPO, seed=0, metrics=("reachability",), regime="des"
            )

    def test_des_excludes_series_and_snapshot_fields(self):
        with pytest.raises(ValueError, match="DesSpec.duration"):
            des_cell(duration=5.0)
        with pytest.raises(ValueError, match="exactly"):
            des_cell(metrics=("des", "reachability"))
        with pytest.raises(ValueError, match="num_queries"):
            des_cell(workload={"num_queries": 5})
        with pytest.raises(ValueError, match="full_selection"):
            des_cell(full_selection=True)

    def test_des_metric_family_needs_des_spec(self):
        with pytest.raises(ValueError, match="needs des=DesSpec"):
            CellSpec(topology=TOPO, seed=0, metrics=("des",))

    def test_mobility_allowed_without_cell_duration(self):
        cell = des_cell(mobility=MobilitySpec(model="rwp"))
        assert cell.is_des and cell.mobility is not None

    def test_round_trip_keeps_hash(self):
        cell = des_cell(mobility=MobilitySpec(model="rwp"))
        again = CellSpec.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert again.key() == cell.key()

    def test_snapshot_and_series_dicts_unchanged(self):
        # the new fields must not leak into pre-existing regimes' hashes
        snap = CellSpec(topology=TOPO, seed=0, metrics=("reachability",))
        assert {"des", "regime"}.isdisjoint(snap.to_dict())
        series = CellSpec(
            topology=TOPO,
            seed=0,
            metrics=("series",),
            duration=4.0,
            mobility=MobilitySpec(model="rwp"),
        )
        assert {"des", "regime"}.isdisjoint(series.to_dict())
        assert series.regime == "series" and snap.regime == "snapshot"

    def test_case_des_override_wins(self):
        fast = DesSpec(latency=0.001, duration=3.0, num_queries=8)
        camp = des_campaign(
            grid={},
            cases=(CaseSpec(label="fast", des=fast), CaseSpec(label="base")),
        )
        by_label = {lbl: cell for lbl, cell in camp.labeled_cells()}
        assert by_label["fast"].des == fast
        assert by_label["base"].des == DES

    def test_campaign_round_trip(self):
        camp = des_campaign()
        again = CampaignSpec.from_dict(json.loads(camp.to_json()))
        assert [c.key() for c in again.expand()] == [
            c.key() for c in camp.expand()
        ]


# ----------------------------------------------------------------------
class TestDesExecution:
    def test_workload_needs_two_nodes(self):
        # the target draw rejects t == s, so one node would loop forever
        with pytest.raises(ValueError, match="at least 2 nodes"):
            DesRunner(line_topology(1), CARDParams(), link=LinkSpec(), num_queries=1)
        DesRunner(line_topology(1), CARDParams(), link=LinkSpec(), num_queries=0)

    def test_execute_cell_deterministic(self):
        cell = des_cell()
        m1, m2 = execute_cell(cell), execute_cell(cell)
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
        assert m1["queries"] == 8
        assert m1["successes"] + m1["failures"] == m1["queries"]
        # every success (zone hits included, at latency 0) contributes
        # one sample to the latency distribution
        assert len(m1["latencies"]) == m1["successes"]
        assert m1["events_dispatched"] > 0 and m1["total_bytes"] > 0

    def test_worker_counts_agree(self, tmp_path):
        spec = des_campaign()
        store1 = ResultStore(tmp_path / "w1.jsonl")
        store2 = ResultStore(tmp_path / "w2.jsonl")
        report1 = CampaignRunner(spec, store1, n_workers=1).run()
        report2 = CampaignRunner(spec, store2, n_workers=2).run()
        assert report1.ok and report2.ok
        assert report1.executed == report2.executed == 2
        assert sorted(store1.keys()) == sorted(store2.keys())
        for key in store1.keys():
            assert store1.metrics(key) == store2.metrics(key)

    def test_warm_rerun_is_pure_cache(self, tmp_path):
        spec = des_campaign()
        store = ResultStore(tmp_path / "s.jsonl")
        first = CampaignRunner(spec, store).run()
        assert first.ok and first.executed == 2
        again = CampaignRunner(spec, ResultStore(tmp_path / "s.jsonl")).run()
        assert again.executed == 0 and again.cached == 2 and again.ok

    def test_shards_partition_and_concatenate(self, tmp_path):
        spec = des_campaign()
        whole = {k for k, _ in CampaignRunner(spec).cells()}
        sharded = []
        for i in (1, 2):
            store = ResultStore(tmp_path / f"shard{i}.jsonl")
            report = CampaignRunner(spec, store=store, shard=(i, 2)).run()
            assert report.ok
            sharded.extend(store.keys())
        assert sorted(sharded) == sorted(whole)


# ----------------------------------------------------------------------
class TestOneEngine:
    """A series run is a des run with no workload, plus a bin sampler."""

    @pytest.mark.parametrize("model", ["rwp", "walk", "gauss_markov"])
    def test_series_entry_shapes_agree(self, model):
        cell = CellSpec(
            topology=TOPO,
            seed=3,
            metrics=("series", "contacts", "churn"),
            duration=4.0,
            mobility=MobilitySpec(model=model),
            num_sources=10,
        )

        def build(runner_cls, **kwargs):
            topo = cell.topology.build(cell.seed)
            return runner_cls(
                topo,
                cell.resolved_params(),
                duration=cell.duration,
                seed=cell.seed,
                sources=sample_sources(topo.num_nodes, cell.num_sources, cell.seed),
                mobility_factory=cell.mobility.factory(),
                **kwargs,
            )

        series = build(TimeSeriesRunner, track_link_deltas=True)
        series_result = series.run()
        des = build(DesRunner, link=LinkSpec(), num_queries=0)
        des_result = des.run()

        stats, des_stats = series.network.stats, des.network.stats
        assert stats.snapshot() == des_stats.snapshot()
        assert stats.total() > 0
        assert stats.total_bytes() == des_stats.total_bytes()
        assert series.protocol.total_contacts() == des_result.final_contacts
        assert sum(series_result.lost_per_bin) == des_result.contacts_lost
        # the campaign entry point runs the same configuration
        assert execute_cell(cell) == series_result.to_metrics(cell.metrics)
