"""Tests for the campaign engine — spec hashing, store crash-safety,
worker-count determinism, resume, aggregation, figure-port parity and the
CLI workflow."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.campaign.aggregate import (
    aggregate_table,
    group_reduce,
    mean_ci,
    stored_records,
)
from repro.api import run as run_experiment
from repro.artifacts.registry import ARTIFACTS
from repro import obs
from repro.campaign.runner import CampaignRunner, execute_cell, sweep_groups
from repro.campaign.spec import CampaignSpec, CellSpec, TopologySpec, content_hash
from repro.campaign.store import ResultStore
from repro.campaign.__main__ import main as campaign_main
from repro.core.params import CARDParams, SelectionMethod
from repro.core.runner import SnapshotRunner
from repro.scenarios.factory import sample_sources
from tests.oracles import toplevel_cycles


def tiny_spec(**overrides) -> CampaignSpec:
    """A 4-cell campaign small enough to run many times per test session."""
    kwargs = dict(
        name="tiny",
        topologies=(TopologySpec(kind="standard", num_nodes=60, salt="tiny"),),
        base_params={"R": 2, "r": 5},
        grid={"noc": [2, 3]},
        seeds=(0, 1),
        metrics=("reachability",),
        num_sources=10,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# ----------------------------------------------------------------------
class TestParamsSerialisation:
    def test_round_trip_defaults(self):
        p = CARDParams()
        assert CARDParams.from_dict(p.to_dict()) == p

    def test_round_trip_enums(self):
        p = CARDParams(R=2, r=8, method=SelectionMethod.PM, pm_equation=1)
        d = json.loads(json.dumps(p.to_dict()))  # via real JSON
        assert CARDParams.from_dict(d) == p

    def test_partial_overrides_keep_defaults(self):
        p = CARDParams.from_dict({"noc": 7})
        assert p.noc == 7 and p.R == CARDParams().R

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown CARDParams fields"):
            CARDParams.from_dict({"nocc": 5})


# ----------------------------------------------------------------------
class TestSpec:
    def test_expand_counts(self):
        spec = tiny_spec()
        cells = spec.expand()
        assert len(cells) == spec.num_cells == 4
        assert {c.seed for c in cells} == {0, 1}
        assert {c.params["noc"] for c in cells} == {2, 3}

    def test_json_round_trip(self):
        spec = tiny_spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert [c.key() for c in clone.expand()] == [c.key() for c in spec.expand()]

    def test_save_load(self, tmp_path):
        spec = tiny_spec()
        path = spec.save(tmp_path / "spec.json")
        assert CampaignSpec.load(path) == spec

    def test_grid_base_params_collision_rejected(self):
        with pytest.raises(ValueError, match="exactly one place"):
            tiny_spec(base_params={"R": 2, "r": 5, "noc": 1})

    def test_cell_hash_stable_and_order_free(self):
        topo = TopologySpec(kind="standard", num_nodes=60, salt="tiny")
        a = CellSpec(topology=topo, params={"R": 2, "noc": 3}, seed=1)
        b = CellSpec(topology=topo, params={"noc": 3, "R": 2}, seed=1)
        assert a.key() == b.key()
        assert len(a.key()) == 64  # sha256 hex

    def test_cell_hash_sensitive(self):
        topo = TopologySpec(kind="standard", num_nodes=60, salt="tiny")
        base = CellSpec(topology=topo, params={"noc": 3}, seed=1)
        assert base.key() != CellSpec(topology=topo, params={"noc": 4}, seed=1).key()
        assert base.key() != CellSpec(topology=topo, params={"noc": 3}, seed=2).key()

    def test_content_hash_is_process_independent(self):
        # known digest: guards against accidental canonicalisation changes
        # sha256 of the canonical form '{"a":1}'
        assert content_hash({"a": 1}) == (
            "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"
        )

    def test_topology_kind_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            TopologySpec(kind="scenario")
        with pytest.raises(ValueError, match="explicit"):
            TopologySpec(kind="explicit", num_nodes=50)
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(kind="mesh")

    def test_scenario_rejects_geometry_overrides(self):
        # area/tx_range would be hashed but silently ignored by build()
        with pytest.raises(ValueError, match="take area/tx_range from Table 1"):
            TopologySpec(kind="scenario", scenario=5, tx_range=100.0)
        with pytest.raises(ValueError, match="take area/tx_range from Table 1"):
            TopologySpec(kind="scenario", scenario=5, area=(900.0, 900.0))

    def test_standard_label_distinguishes_geometry(self):
        plain = TopologySpec(kind="standard", num_nodes=100)
        wide = TopologySpec(kind="standard", num_nodes=100, area=(900.0, 900.0))
        ranged = TopologySpec(kind="standard", num_nodes=100, tx_range=70.0)
        assert len({plain.label, wide.label, ranged.label}) == 3

    def test_stray_scenario_field_rejected(self):
        # otherwise ignored by build() but hashed — a silent wrong-config
        with pytest.raises(ValueError, match="use kind='scenario'"):
            TopologySpec(kind="standard", scenario=3)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("grid axis 'method'", {"grid": {"method": "EM"}}),
            ("seeds", {"seeds": "01"}),  # would run seeds (0, 1)
            ("metrics", {"metrics": "reachability"}),
        ],
    )
    def test_bare_string_where_a_list_belongs_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=f"{field} must be a list.*bare string"):
            tiny_spec(**overrides)
        as_json = dict(tiny_spec().to_dict(), **overrides)
        with pytest.raises(ValueError, match=f"{field} must be a list"):
            CampaignSpec.from_dict(as_json)

    def test_cell_rejects_bare_string_metrics_and_foreign_version(self):
        cell = tiny_spec().expand()[0].to_dict()
        with pytest.raises(ValueError, match="metrics must be a list"):
            CellSpec.from_dict(dict(cell, metrics="reachability"))
        with pytest.raises(ValueError, match='"v": 2 not supported'):
            CellSpec.from_dict(dict(cell, v=2))
        with pytest.raises(ValueError, match='"v": 2 not supported'):
            CampaignSpec.from_dict(dict(tiny_spec().to_dict(), v=2))

    def test_cells_are_hashable(self):
        spec = tiny_spec(seeds=(0, 0, 1))
        assert len(set(spec.expand())) == 4
        assert len(spec.unique_cells()) == 4

    def test_enum_and_numpy_params_canonicalised(self):
        # programmatic specs may hold enum members / numpy scalars; their
        # hashes must match the JSON round-tripped form
        spec = tiny_spec(
            base_params={"R": np.int64(2), "r": 5, "method": SelectionMethod.PM},
            grid={"noc": np.arange(2, 4)},
        )
        clone = CampaignSpec.from_json(spec.to_json())
        assert [c.key() for c in clone.expand()] == [c.key() for c in spec.expand()]
        assert spec.expand()[0].resolved_params().method is SelectionMethod.PM

    def test_unserialisable_param_rejected_with_name(self):
        with pytest.raises(ValueError, match="'noc' has non-JSON-serialisable"):
            tiny_spec(base_params={"R": 2, "r": 5, "noc": object()})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            tiny_spec().expand()[0].__class__(
                topology=TopologySpec(), metrics=("latency",)
            )


# ----------------------------------------------------------------------
class TestStore:
    def test_append_reload(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("k1", {"seed": 0}, {"m": 1.5})
        store.append("k2", {"seed": 1}, {"m": 2.5}, meta={"elapsed": 0.1})
        fresh = ResultStore(tmp_path / "s.jsonl")
        assert len(fresh) == 2 and "k1" in fresh
        assert fresh.metrics("k2") == {"m": 2.5}
        assert fresh.corrupt_lines == 0

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("k1", {}, {"m": 1})
        store.append("k2", {}, {"m": 2})
        with path.open("a") as fh:  # simulate a crash mid-append
            fh.write('{"key": "k3", "metr')
        fresh = ResultStore(path)
        assert sorted(fresh.keys()) == ["k1", "k2"]
        assert fresh.corrupt_lines == 1

    def test_duplicate_key_last_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("k", {}, {"m": 1})
        store.append("k", {}, {"m": 2})
        assert ResultStore(path).metrics("k") == {"m": 2}

    def test_memory_store(self):
        store = ResultStore(None)
        store.append("k", {}, {"m": 1})
        assert store.metrics("k") == {"m": 1} and store.path is None


# ----------------------------------------------------------------------
class TestRunnerDeterminism:
    def test_same_hashes_and_metrics_across_worker_counts(self, tmp_path):
        spec = tiny_spec()
        store1 = ResultStore(tmp_path / "w1.jsonl")
        store2 = ResultStore(tmp_path / "w2.jsonl")
        report1 = CampaignRunner(spec, store1, n_workers=1).run()
        report2 = CampaignRunner(spec, store2, n_workers=2).run()
        assert report1.ok and report2.ok
        assert report1.executed == report2.executed == 4
        assert sorted(store1.keys()) == sorted(store2.keys())
        for key in store1.keys():
            assert store1.metrics(key) == store2.metrics(key)

    #: fig05's seven cells are groups of one; fig07 over three seeds is
    #: three sweep groups of seven NoC values each
    RENDERED = {"fig05": {"scale": 0.2}, "fig07": {"scale": 0.2, "seeds": (0, 1, 2)}}

    @pytest.fixture(scope="class")
    def in_process(self):
        return {
            artifact: run_experiment(artifact, workers=1, **options).render()
            for artifact, options in self.RENDERED.items()
        }

    @pytest.mark.parametrize("artifact", sorted(RENDERED))
    @pytest.mark.parametrize("start", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_width_and_start_method_render_the_same(
        self, monkeypatch, in_process, workers, start, artifact
    ):
        # spawn is the default start method on macOS and Windows: workers
        # import the package afresh instead of inheriting it; 4 workers
        # are more than a 2-CPU host has
        import multiprocessing as mp

        if start not in mp.get_all_start_methods():
            pytest.skip(f"no {start} start method on this platform")
        context = mp.get_context(start)
        asked = []
        monkeypatch.setattr(
            mp, "get_context", lambda method=None: asked.append(method) or context
        )
        options = self.RENDERED[artifact]
        render = run_experiment(artifact, workers=workers, **options).render()
        assert render == in_process[artifact]
        assert asked

    def test_rerun_is_pure_cache(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store).run()
        again = CampaignRunner(spec, ResultStore(tmp_path / "s.jsonl")).run()
        assert again.executed == 0 and again.cached == 4 and again.ok

    def test_resume_truncated_store_runs_only_missing(self, tmp_path):
        spec = tiny_spec()
        full = tmp_path / "full.jsonl"
        CampaignRunner(spec, ResultStore(full)).run()
        lines = full.read_text().splitlines()
        assert len(lines) == 4
        part = tmp_path / "part.jsonl"
        part.write_text("\n".join(lines[:2]) + "\n")
        kept = {json.loads(line)["key"] for line in lines[:2]}

        executed = []
        runner = CampaignRunner(spec, ResultStore(part))
        report = runner.run(progress=lambda o, i, n: executed.append(o.key))
        assert report.executed == 2 and report.cached == 2
        assert set(executed).isdisjoint(kept)
        # resumed store converges to the full run
        full_store, part_store = ResultStore(full), ResultStore(part)
        for key in full_store.keys():
            assert part_store.metrics(key) == full_store.metrics(key)

    def test_force_reexecutes_everything(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store).run()
        report = CampaignRunner(spec, store).run(force=True)
        assert report.executed == 4 and report.cached == 0

    def test_failed_cell_reported_not_stored(self):
        # scenario index 99 does not exist → the cell fails at build time
        spec = CampaignSpec(
            name="broken",
            topologies=(TopologySpec(kind="scenario", scenario=99),),
            metrics=("topology",),
        )
        store = ResultStore(None)
        report = CampaignRunner(spec, store).run()
        assert not report.ok and report.failed == 1
        assert len(store) == 0
        assert "no scenario 99" in report.outcomes[0].error

    def test_status(self, tmp_path):
        spec = tiny_spec()
        runner = CampaignRunner(spec, ResultStore(tmp_path / "s.jsonl"))
        before = runner.status()
        assert before["total"] == 4 and before["done"] == 0
        runner.run()
        after = runner.status()
        assert after["done"] == 4 and after["missing"] == []


# ----------------------------------------------------------------------
class TestExecuteCell:
    def test_metric_families(self):
        cell = CellSpec(
            topology=TopologySpec(kind="standard", num_nodes=60, salt="tiny"),
            params={"R": 2, "r": 5, "noc": 2},
            metrics=("topology", "reachability", "overhead"),
            num_sources=10,
        )
        metrics = execute_cell(cell)
        assert metrics["num_nodes"] == 60
        assert 0.0 <= metrics["mean_reachability"] <= 100.0
        assert len(metrics["distribution"]) > 0
        assert metrics["measured_sources"] == 10
        assert metrics["selection_msgs_per_source"] >= 0.0
        assert any(k.startswith("msgs_") for k in metrics)
        # everything must survive a JSON round trip (store format)
        assert json.loads(json.dumps(metrics)) == metrics

    @pytest.mark.parametrize("full_selection", [False, True])
    def test_frac_ge50_is_the_share_at_or_above_half(self, full_selection):
        cell = CellSpec(
            topology=TopologySpec(kind="standard", num_nodes=150, salt="frac"),
            params={"R": 3, "r": 10, "noc": 6},
            metrics=("tradeoff",),
            num_sources=30,
            full_selection=full_selection,
        )
        frac = execute_cell(cell)["frac_ge50"]
        topo = cell.topology.build(cell.seed)
        sources = sample_sources(topo.num_nodes, cell.num_sources, cell.seed)
        runner = SnapshotRunner(
            topo,
            cell.resolved_params(),
            seed=cell.seed,
            sources=None if full_selection else sources,
        )
        runner.run()
        reach = runner.protocol.reachability(sources)
        assert 0.0 < frac < 1.0
        assert frac == np.count_nonzero(reach >= 50.0) / len(sources)


    # one real cell per metric family; the first cell of each artifact's
    # scale-0.2 spec is well under a second
    @pytest.mark.parametrize(
        "artifact",
        [
            "table1",  # topology
            "fig14",  # reachability, overhead, tradeoff
            "ablation_overlap",  # overlap
            "fig10",  # series
            "mobility_rate",  # series, contacts, churn
            "fig15",  # comparison
            "ablation_query",  # query
            "ablation_failures",  # failures
            "smallworld",
            "fig_des_latency",  # des
        ],
    )
    def test_finished_cell_is_freed_by_refcount(self, artifact):
        """A finished cell leaves nothing for the cyclic collector, so its
        topology and distance band are gone before the next cell peaks."""
        cell = ARTIFACTS[artifact].build_spec(scale=0.2, seed=0).expand()[0]
        gc.collect()
        gc.disable()
        try:
            execute_cell(cell)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ----------------------------------------------------------------------
class TestSweepGroups:
    """Cells that differ only in NoC or D run as one sweep group: one
    topology, one band, one selection run, a view per member."""

    #: the paper's NoC and D sweeps; fig04's cells are a prefix of fig03's
    SWEEPS = ("fig03", "fig04", "fig07", "fig08", "fig14")

    def test_grouped_metrics_equal_each_member_alone(self):
        pairs = {}
        store = ResultStore(None)
        for artifact in self.SWEEPS:
            spec = ARTIFACTS[artifact].spec(scale=0.3)
            groups = sweep_groups(list(spec.unique_cells().items()))
            assert max(len(g) for g in groups) > 1, artifact
            assert CampaignRunner(spec, store).run().ok
            pairs.update(spec.unique_cells())
        for key, cell in pairs.items():
            assert json.dumps(store.metrics(key)) == json.dumps(
                execute_cell(cell)
            ), key

    def test_only_selection_snapshot_cells_group(self):
        base = CellSpec(
            topology=TopologySpec(kind="standard", num_nodes=60, salt="grp"),
            params={"R": 2, "r": 5, "noc": 2},
            metrics=("reachability", "overhead"),
        )
        def with_params(cell, **params):
            return CellSpec.from_dict(
                {**cell.to_dict(), "params": {**cell.params, **params}}
            )
        topo = CellSpec.from_dict({**base.to_dict(), "metrics": ["topology", "reachability"]})
        cells = [
            base,
            with_params(base, noc=4),
            with_params(base, depth=2, noc=3),
            with_params(base, r=6),  # another radius: its own run
            topo,
            with_params(topo, noc=4),  # records topology: never grouped
        ]
        groups = sweep_groups([(c.key(), c) for c in cells])
        assert [[c.resolved_params().noc for _, c in g] for g in groups] == [
            [4, 3, 2], [2], [2], [4]
        ]

    def test_shared_run_rejects_a_cell_of_another_group(self):
        (cell, *_), (other, *_) = (
            list(spec.unique_cells().values())
            for spec in (tiny_spec(), tiny_spec(base_params={"R": 2, "r": 6}))
        )
        shared = {}
        execute_cell(cell, shared)
        with pytest.raises(ValueError, match="sweep group"):
            execute_cell(other, shared)

    def test_telemetry_records_every_member_as_a_cell(self, tmp_path):
        spec = ARTIFACTS["fig07"].spec(scale=0.2, seeds=(0, 1))
        store = tmp_path / "s.jsonl"
        report = CampaignRunner(spec, str(store), telemetry=True).run()
        assert report.ok and report.executed == 14
        log = obs.load_trace(store.with_suffix(".trace.jsonl"))
        keys = sorted(o.key for o in report.outcomes)
        assert sorted(r["key"] for r in log.records) == keys
        assert obs.summarize(log).cells == 14
        assert sorted(row["key"] for row in obs.slowest(log, limit=100)) == keys
        # the shared work is the leader's: only two records built a
        # topology and ran selection, one per seed
        built = [r for r in log.records if "topology_build" in r["phases"]]
        assert len(built) == 2
        assert all("bootstrap" in r["phases"] for r in built)
        assert not any(
            "bootstrap" in r["phases"] for r in log.records if r not in built
        )


class TestAggregate:
    def test_mean_ci(self):
        assert mean_ci([]) == (0.0, 0.0)
        assert mean_ci([3.0]) == (3.0, 0.0)
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half == pytest.approx(1.96 * 1.0 / np.sqrt(3))

    def test_group_reduce_over_seeds(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store).run()
        records = stored_records(spec, store)
        assert len(records) == 4
        rows = group_reduce(records, by=["noc"], values=["mean_reachability"])
        assert [row[0] for row in rows] == [2, 3]
        assert all(row[-1] == 2 for row in rows)  # two seeds per group

    def test_aggregate_table_defaults(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store).run()
        result = aggregate_table(spec, store)
        assert result.headers[:2] == ["topology", "noc"]
        assert "mean_reachability" in result.headers
        assert len(result.rows) == 2  # one per NoC value
        assert result.render()

    def test_aggregate_incomplete_store_noted(self):
        result = aggregate_table(tiny_spec(), ResultStore(None))
        assert any("incomplete" in n for n in result.notes)
        assert result.rows == []

    def test_aggregate_duplicate_cells_count_once(self):
        # seeds (0, 0) expand to duplicate cells sharing one key; the
        # runner stores each key once — the report must not call that
        # incomplete
        spec = tiny_spec(seeds=(0, 0))
        store = ResultStore(None)
        CampaignRunner(spec, store).run()
        result = aggregate_table(spec, store)
        assert not any("incomplete" in n for n in result.notes)

    def test_non_scalar_metric_rejected_with_message(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store).run()
        with pytest.raises(ValueError, match="not scalar-reducible"):
            aggregate_table(spec, store, values=["distribution"])


# ----------------------------------------------------------------------
class TestFigurePorts:
    def test_fig07_facade_matches_artifact_run(self):
        kwargs = dict(scale=0.25, seed=0, noc_values=(0, 2, 4), num_sources=20)
        facade = run_experiment("fig07", **kwargs)
        campaign = ARTIFACTS["fig07"].run(**kwargs)
        assert campaign.raw["means"] == facade.raw["means"]
        for label, column in facade.raw["columns"].items():
            assert (campaign.raw["columns"][label] == column).all()
        # rendered tables carry identical data rows
        assert campaign.rows == facade.rows

    def test_fig07_campaign_parallel_matches_serial(self, tmp_path):
        kwargs = dict(scale=0.2, seed=0, noc_values=(0, 2), num_sources=15)
        serial = ARTIFACTS["fig07"].run(n_workers=1, **kwargs)
        parallel = ARTIFACTS["fig07"].run(
            n_workers=2, store=ResultStore(tmp_path / "s.jsonl"), **kwargs
        )
        assert serial.raw["means"] == parallel.raw["means"]

    def test_table1_facade_matches_artifact_run(self):
        facade = run_experiment("table1", scale=0.15, seed=0)
        campaign = ARTIFACTS["table1"].run(scale=0.15, seed=0)
        assert campaign.rows == facade.rows
        assert campaign.headers == facade.headers

    def test_fig07_spec_declares_grid(self):
        spec = ARTIFACTS["fig07"].spec(scale=0.2, noc_values=(0, 4))
        assert spec.grid == {"noc": [0, 4]}
        assert spec.num_cells == 2

    def test_table1_spec_covers_all_scenarios(self):
        spec = ARTIFACTS["table1"].spec(scale=0.15)
        assert len(spec.topologies) == 8
        assert {t.scenario for t in spec.topologies} == set(range(1, 9))

    def test_registry_has_one_name_per_artifact(self):
        assert [a.id for a in ARTIFACTS.values() if a.derived] == ["fig03_04"]


# ----------------------------------------------------------------------
class TestCLI:
    def test_example_run_resume_status_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert campaign_main(["example", "--tiny", "--out", str(spec_path)]) == 0
        assert campaign_main(["run", str(spec_path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out

        # a second run executes only what is missing: nothing
        assert campaign_main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 cached" in out

        assert campaign_main(["status", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out

        assert (
            campaign_main(
                ["report", str(spec_path), "--values", "mean_reachability"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean_reachability" in out

    def test_status_incomplete_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        capsys.readouterr()
        assert campaign_main(["status", str(spec_path)]) == 2

    def test_clean_cli_errors(self, tmp_path, capsys):
        # missing spec, malformed spec, bad axis, non-scalar metric: all
        # one-line errors with exit 1, never tracebacks
        assert campaign_main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error: no such file" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"')
        assert campaign_main(["run", str(bad)]) == 1
        assert "error: invalid JSON" in capsys.readouterr().err

        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        campaign_main(["run", str(spec_path)])
        capsys.readouterr()
        assert campaign_main(["report", str(spec_path), "--by", "bogus"]) == 1
        assert "unknown field 'bogus'" in capsys.readouterr().err
        assert (
            campaign_main(
                ["report", str(spec_path), "--values", "distribution"]
            )
            == 1
        )
        assert "not scalar-reducible" in capsys.readouterr().err

    def test_typoed_spec_key_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        capsys.readouterr()
        text = spec_path.read_text().replace("num_nodes", "num_node")
        spec_path.write_text(text)
        assert campaign_main(["status", str(spec_path)]) == 1
        assert "unknown topology keys ['num_node']" in capsys.readouterr().err

    @pytest.mark.parametrize("uri", ["sqlite:///{}", "{}"])
    def test_merge_missing_sqlite_input_is_an_error(self, tmp_path, capsys, uri):
        # a typo'd input must not be created empty and merged as 0 records
        missing = tmp_path / "typo.db"
        out = tmp_path / "out.jsonl"
        assert campaign_main(["merge", str(out), uri.format(missing)]) == 1
        assert "error: no such file" in capsys.readouterr().err
        assert not missing.exists() and not out.exists()


class TestLayering:
    @staticmethod
    def _graph():
        from pathlib import Path

        import repro
        from tools.card_lint.importgraph import build_graph

        return build_graph(Path(repro.__file__).parent)

    def test_import_repro_loads_no_cli(self):
        # the campaign exports reachable from `import repro` must not drag
        # a command line in (aggregate is lazy) —
        # asserted statically over the import-time edges of the graph
        graph = self._graph()
        closure = graph.closure(["repro"], include_deferred=False)
        bad = sorted(m for m in closure if m.endswith(".__main__"))
        assert not bad, f"`import repro` reaches {bad}"

    def test_toplevel_import_graph_is_cycle_free(self):
        # a non-trivial SCC over import-time edges means some first-import
        # order hits a partially-initialised module; the static check
        # covers every order at once (the old suite sampled five)
        cycles = toplevel_cycles(self._graph())
        assert cycles == [], f"top-level import cycles: {cycles}"

    def test_first_import_order_smoke(self):
        # one subprocess smoke test stays: prove the historically fragile
        # side (definitions first, before any campaign import) end-to-end
        import subprocess, sys

        proc = subprocess.run(
            [sys.executable, "-c", "import repro.artifacts.definitions"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
class TestSharding:
    def test_shards_partition_the_grid(self):
        spec = tiny_spec()
        all_keys = [k for k, _ in CampaignRunner(spec).cells()]
        seen: list = []
        for i in (1, 2, 3):
            shard_keys = [
                k for k, _ in CampaignRunner(spec, shard=(i, 3)).cells()
            ]
            assert not set(shard_keys) & set(seen)  # disjoint
            seen.extend(shard_keys)
        assert sorted(seen) == sorted(all_keys)  # complete

    def test_shard_assignment_is_stable(self):
        spec = tiny_spec()
        first = [k for k, _ in CampaignRunner(spec, shard=(2, 3)).cells()]
        again = [k for k, _ in CampaignRunner(spec, shard=(2, 3)).cells()]
        assert first == again

    def test_invalid_shards_rejected(self):
        spec = tiny_spec()
        for bad in [(0, 3), (4, 3), (1, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                CampaignRunner(spec, shard=bad)

    def test_sharded_stores_concatenate(self, tmp_path):
        spec = tiny_spec()
        paths = []
        for i in (1, 2):
            store_path = tmp_path / f"s{i}.jsonl"
            store = ResultStore(store_path)
            report = CampaignRunner(spec, store=store, shard=(i, 2)).run()
            assert report.ok and report.executed > 0
            paths.append(store_path)
        merged = tmp_path / "merged.jsonl"
        merged.write_bytes(b"".join(p.read_bytes() for p in paths))
        status = CampaignRunner(spec, store=ResultStore(merged)).status()
        assert status["done"] == status["total"]
        assert not status["missing"]

    def test_single_shard_is_whole_campaign(self):
        spec = tiny_spec()
        assert len(CampaignRunner(spec, shard=(1, 1)).cells()) == len(
            CampaignRunner(spec).cells()
        )

    def test_cli_shard_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        capsys.readouterr()
        s1 = tmp_path / "s1.jsonl"
        s2 = tmp_path / "s2.jsonl"
        assert campaign_main(
            ["run", str(spec_path), "--shard", "1/2", "--store", str(s1)]
        ) == 0
        assert "1 executed" in capsys.readouterr().out
        assert campaign_main(
            ["run", str(spec_path), "--shard", "2/2", "--store", str(s2)]
        ) == 0
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        merged.write_bytes(s1.read_bytes() + s2.read_bytes())
        assert campaign_main(
            ["status", str(spec_path), "--store", str(merged)]
        ) == 0
        assert "2/2 done" in capsys.readouterr().out

    def test_cli_shard_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        capsys.readouterr()
        for bad in ("3", "0/2", "3/2", "a/b"):
            assert campaign_main(
                ["run", str(spec_path), "--shard", bad]
            ) == 1
            assert "invalid --shard" in capsys.readouterr().err
