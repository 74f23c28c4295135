"""Campaign spec/cell behavior, registry surface, and the figure CLI.

(The bit-for-bit output matrix lives in ``tests/test_golden_artifacts.py``
— every artifact against its pinned golden fixture, ``pytest -m parity``.)

Groups here:

* ``TestTimeSeriesCells`` / ``TestCaseSpecs`` — property and
  hash-stability tests for the extended ``CellSpec``: time-series cells
  hash deterministically and keep snapshot cells' pre-extension hashes,
  unknown mobility/metric/workload keys are rejected, and cells
  round-trip through the JSONL ``ResultStore`` (including
  truncated-store resume over a store mixing snapshot and time-series
  cells).
* ``TestFigureCLI`` — the ``figure`` subcommand and
  ``report --format csv|json`` workflows.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.artifacts.registry import ARTIFACTS
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.runner import CampaignRunner, execute_cell
from repro.campaign.spec import (
    CampaignSpec,
    CaseSpec,
    CellSpec,
    MobilitySpec,
    TopologySpec,
)
from repro.campaign.store import ResultStore
from repro.scenarios.factory import standard_topology

# every artifact's spec comes from its one definition
fig05_spec = ARTIFACTS["fig05"].spec
fig10_spec = ARTIFACTS["fig10"].spec
fig11_spec = ARTIFACTS["fig11"].spec
fig12_spec = ARTIFACTS["fig12"].spec


def run_experiment(exp_id, **kwargs):
    return ARTIFACTS[exp_id].run(**kwargs)


def tiny_mobility() -> MobilitySpec:
    return MobilitySpec(model="rwp", min_speed=0.5, max_speed=5.0, pause=2.0)


def tiny_series_cell(**overrides) -> CellSpec:
    kwargs = dict(
        topology=TopologySpec(kind="standard", num_nodes=60, salt=("fig10", 3)),
        params={"R": 2, "r": 6, "noc": 3},
        seed=1,
        metrics=("series", "contacts"),
        num_sources=10,
        duration=4.0,
        mobility=tiny_mobility(),
    )
    kwargs.update(overrides)
    return CellSpec(**kwargs)


# ----------------------------------------------------------------------
class TestPortCoverage:
    def test_artifact_registry_is_the_only_registry(self):
        # the pre-flip surface (CAMPAIGN_FIGURES / get_figure_port /
        # run_<id>_campaign) and the per-artifact function pairs are
        # gone, not lazily re-exported: the engine knows no artifact id
        import repro.artifacts as artifacts
        import repro.campaign as campaign

        for name in (
            "CAMPAIGN_FIGURES", "get_figure_port", "run_fig07_campaign",
            "figures", "fig07_spec", "reduce_fig07",
        ):
            assert not hasattr(campaign, name)
        assert not hasattr(artifacts, "tables")
        for module in ("repro.campaign.figures", "repro.artifacts.tables"):
            with pytest.raises(ModuleNotFoundError):
                __import__(module)

    def test_variants_are_data_on_a_shared_recipe(self):
        # fig12 is fig11's sweep read through another series; figs 3/4
        # are one sweep under three ids; the _ci artifacts their base
        # recipe over a seed tuple
        recipe = lambda exp_id: ARTIFACTS[exp_id].build_spec.func  # noqa: E731
        assert recipe("fig12") is recipe("fig11")
        assert recipe("fig03") is recipe("fig04") is recipe("fig03_04")
        assert recipe("fig07_ci") is recipe("fig07")
        assert recipe("table1_ci") is recipe("table1")
        fig11, fig12 = ARTIFACTS["fig11"].reduce, ARTIFACTS["fig12"].reduce
        assert fig12.func is fig11.func
        assert fig12.keywords["series"] == "backtracking"
        assert "series" not in fig11.keywords


class TestCrossFigureCache:
    def test_fig12_reuses_fig11_cells(self, tmp_path):
        """Figs 11/12 are two views of the same runs: one shared store
        computes the cells once (content-hash identity, not name)."""
        kwargs = dict(scale=0.2, seed=0, r_values=(8,), duration=4.0, num_sources=10)
        store = ResultStore(tmp_path / "shared.jsonl")
        run_experiment("fig11", store=store, **kwargs)
        executed_before = len(store)
        spec12 = fig12_spec(**kwargs)
        report = CampaignRunner(spec12, store=store).run()
        assert report.cached == report.total_cells  # nothing re-runs
        assert len(store) == executed_before
        run_experiment("fig12", store=store, **kwargs)  # reduces too

    def test_fig04_reuses_fig03_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "shared.jsonl")
        kwargs = dict(scale=0.2, seed=0, num_sources=10)
        run_experiment("fig03", store=store, max_noc=3, **kwargs)
        n_after_fig03 = len(store)
        run_experiment("fig04", store=store, max_noc=2, **kwargs)
        assert len(store) == n_after_fig03  # fig04's cells are a subset


# ----------------------------------------------------------------------
class TestTimeSeriesCells:
    def test_hash_deterministic_and_pinned(self):
        # pinned digest: the canonical time-series cell form is stable
        # across sessions/processes (content, not object identity)
        assert tiny_series_cell().key() == (
            "a3812c05da33d6c1edf8f86ea5d904dc27e6a46bb23709869f0a4d9d54d5af61"
        )
        assert tiny_series_cell().key() == tiny_series_cell().key()

    def test_snapshot_cells_keep_pre_extension_hashes(self):
        # the PR-1/PR-2 cell schema must keep hashing identically, or
        # every existing store goes cold; digest pinned from the PR-2 code
        cell = CellSpec(
            topology=TopologySpec(kind="standard", num_nodes=60, salt="tiny"),
            params={"R": 2, "r": 5, "noc": 2},
            seed=0,
            metrics=("reachability",),
            num_sources=10,
        )
        assert sorted(cell.to_dict()) == [
            "metrics", "num_sources", "params", "seed", "topology", "v",
        ]
        assert cell.key() == (
            "eed39039fafc9c2a53004b5ee42d85c8338fab38f0400ef70385bba4ded43ddd"
        )

    def test_hash_covers_regime_fields(self):
        base = tiny_series_cell()
        assert base.key() != tiny_series_cell(duration=6.0).key()
        assert base.key() != tiny_series_cell(
            mobility=MobilitySpec(model="rwp", min_speed=0.5, max_speed=5.0, pause=1.0)
        ).key()
        assert base.key() != tiny_series_cell(metrics=("series",)).key()

    def test_json_round_trip_preserves_key(self):
        cell = tiny_series_cell()
        clone = CellSpec.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert clone.key() == cell.key()
        assert clone.mobility == cell.mobility

    def test_series_metrics_require_duration(self):
        with pytest.raises(ValueError, match="need\\s+duration and mobility"):
            tiny_series_cell(duration=None, mobility=None)

    def test_duration_requires_mobility(self):
        with pytest.raises(ValueError, match="mobility model"):
            tiny_series_cell(mobility=None)

    def test_mobility_requires_duration(self):
        with pytest.raises(ValueError, match="no duration"):
            tiny_series_cell(duration=None, metrics=("reachability",))

    def test_snapshot_families_rejected_on_series_cell(self):
        with pytest.raises(ValueError, match="snapshot metric families"):
            tiny_series_cell(metrics=("series", "reachability"))

    def test_full_selection_rejected_on_series_cell(self):
        with pytest.raises(ValueError, match="full_selection"):
            tiny_series_cell(full_selection=True)

    def test_exclusive_families_stand_alone(self):
        with pytest.raises(ValueError, match="only family"):
            CellSpec(
                topology=TopologySpec(),
                metrics=("smallworld", "reachability"),
            )

    def test_unknown_mobility_model_rejected(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            MobilitySpec(model="teleport")
        with pytest.raises(ValueError, match="unknown mobility model"):
            MobilitySpec.from_dict({"model": "teleport"})

    def test_irrelevant_mobility_field_rejected(self):
        # a knob the model never reads must not silently enter the hash
        with pytest.raises(ValueError, match="not read by model"):
            MobilitySpec(model="rwp", alpha=0.5)
        with pytest.raises(ValueError, match="unknown mobility keys"):
            MobilitySpec.from_dict({"model": "rwp", "mean_epoch": 3.0})

    def test_mobility_serialises_only_relevant_fields(self):
        spec = tiny_mobility()
        assert sorted(spec.to_dict()) == ["max_speed", "min_speed", "model", "pause"]
        gm = MobilitySpec(model="gauss_markov", alpha=0.9, mean_speed=2.0, sigma=1.5)
        assert sorted(gm.to_dict()) == ["alpha", "mean_speed", "model", "sigma"]
        assert MobilitySpec.from_dict(gm.to_dict()) == gm

    def test_unknown_workload_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown workload keys"):
            CellSpec(
                topology=TopologySpec(),
                metrics=("query",),
                workload={"num_queries": 5, "scheme": "dsq", "ttl": 3},
            )

    def test_query_scheme_validated(self):
        with pytest.raises(ValueError, match="workload scheme"):
            CellSpec(
                topology=TopologySpec(),
                metrics=("query",),
                workload={"num_queries": 5, "scheme": "carrier-pigeon"},
            )
        with pytest.raises(ValueError, match="num_queries"):
            CellSpec(
                topology=TopologySpec(),
                metrics=("comparison",),
                workload={"num_queries": 0},
            )

    def test_workload_needs_workload_family(self):
        with pytest.raises(ValueError, match="workload only applies"):
            CellSpec(
                topology=TopologySpec(),
                metrics=("reachability",),
                workload={"num_queries": 5},
            )

    def test_tuple_salt_round_trips_and_matches_legacy_stream(self):
        topo_spec = TopologySpec(kind="standard", num_nodes=60, salt=("fig10", 3))
        clone = TopologySpec.from_dict(json.loads(json.dumps(topo_spec.to_dict())))
        assert clone == topo_spec
        built = clone.build(0)
        legacy = standard_topology(num_nodes=60, seed=0, salt=("fig10", 3))
        assert np.array_equal(built.positions, legacy.positions)

    def test_salt_distinguishes_labels(self):
        a = TopologySpec(kind="standard", num_nodes=60, salt=("fig10", 3))
        b = TopologySpec(kind="standard", num_nodes=60, salt=("fig10", 4))
        assert a.label != b.label

    def test_series_cell_round_trips_through_store(self, tmp_path):
        cell = tiny_series_cell()
        metrics = execute_cell(cell)
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(cell.key(), cell.to_dict(), metrics)
        fresh = ResultStore(tmp_path / "s.jsonl")
        assert fresh.metrics(cell.key()) == metrics
        # stored cell dict rebuilds the identical cell
        record = fresh.get(cell.key())
        assert CellSpec.from_dict(record["cell"]).key() == cell.key()

    def test_churn_family_records_substrate_stats(self):
        metrics = execute_cell(tiny_series_cell(metrics=("series", "churn")))
        assert len(metrics["link_churn"]) > 0
        assert "substrate_stats" in metrics
        assert metrics["mean_link_churn"] >= 0.0

    def test_mixed_store_truncated_resume(self, tmp_path):
        """One store holding snapshot AND time-series cells resumes
        correctly after losing its tail (crash mid-campaign)."""
        snap = fig05_spec(scale=0.2, seed=0, radii=(1, 2), num_sources=10)
        series = fig10_spec(
            scale=0.2, seed=0, noc_values=(2, 3), duration=4.0, num_sources=10
        )
        path = tmp_path / "mixed.jsonl"
        store = ResultStore(path)
        assert CampaignRunner(snap, store=store).run().ok
        assert CampaignRunner(series, store=store).run().ok
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        # drop the last series cell and half-write another record
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text("\n".join(lines[:3]) + '\n{"key": "zzz", "metr')
        resumed = ResultStore(truncated)
        assert resumed.corrupt_lines == 1
        report_snap = CampaignRunner(snap, store=resumed).run()
        report_series = CampaignRunner(series, store=resumed).run()
        assert report_snap.executed + report_series.executed == 1
        assert report_snap.cached + report_series.cached == 3
        # resumed store converges on the full run, bit for bit
        full = ResultStore(path)
        for key in full.keys():
            assert resumed.metrics(key) == full.metrics(key)


# ----------------------------------------------------------------------
class TestCaseSpecs:
    def test_labels_never_enter_the_hash(self):
        a = CaseSpec(label="alpha", params={"noc": 3})
        b = CaseSpec(label="beta", params={"noc": 3})
        spec_a = CampaignSpec(
            name="x", topologies=(TopologySpec(num_nodes=60),), cases=(a,)
        )
        spec_b = CampaignSpec(
            name="x", topologies=(TopologySpec(num_nodes=60),), cases=(b,)
        )
        assert [c.key() for c in spec_a.expand()] == [
            c.key() for c in spec_b.expand()
        ]

    def test_labeled_cells_align_with_expand(self):
        spec = fig10_spec(scale=0.2, seed=0, noc_values=(2, 3), duration=4.0)
        labeled = spec.labeled_cells()
        assert [cell.key() for _, cell in labeled] == [
            c.key() for c in spec.expand()
        ]
        assert [label for label, _ in labeled] == ["NoC=2", "NoC=3"]

    def test_duplicate_case_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate case labels"):
            CampaignSpec(
                name="x",
                topologies=(TopologySpec(num_nodes=60),),
                cases=(CaseSpec(label="a"), CaseSpec(label="a")),
            )

    def test_case_grid_collision_rejected(self):
        with pytest.raises(ValueError, match="exactly one place"):
            CampaignSpec(
                name="x",
                topologies=(TopologySpec(num_nodes=60),),
                grid={"noc": [1, 2]},
                cases=(CaseSpec(label="a", params={"noc": 3}),),
            )

    def test_campaign_needs_some_topology(self):
        with pytest.raises(ValueError, match="at least one topology"):
            CampaignSpec(name="x", cases=(CaseSpec(label="a"),))
        # per-case topologies are enough
        CampaignSpec(
            name="x",
            cases=(CaseSpec(label="a", topology=TopologySpec(num_nodes=60)),),
        )

    def test_case_spec_json_round_trip(self):
        spec = fig11_spec(scale=0.2, seed=1, r_values=(8, 12), duration=4.0)
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert [c.key() for c in clone.expand()] == [
            c.key() for c in spec.expand()
        ]

    def test_case_mobility_overrides_spec_mobility(self):
        spec = CampaignSpec(
            name="x",
            topologies=(TopologySpec(num_nodes=60),),
            cases=(
                CaseSpec(label="walker", mobility=MobilitySpec(model="walk")),
                CaseSpec(label="default"),
            ),
            metrics=("series",),
            duration=4.0,
            mobility=tiny_mobility(),
        )
        by_label = dict(spec.labeled_cells())
        assert by_label["walker"].mobility.model == "walk"
        assert by_label["default"].mobility.model == "rwp"

    def test_case_workload_merges_over_spec_workload(self):
        spec = CampaignSpec(
            name="x",
            topologies=(TopologySpec(num_nodes=60),),
            cases=(CaseSpec(label="ring", workload={"scheme": "ring"}),),
            metrics=("query",),
            workload={"num_queries": 5},
        )
        (label, cell), = spec.labeled_cells()
        assert cell.workload == {"num_queries": 5, "scheme": "ring"}


# ----------------------------------------------------------------------
class TestFigureCLI:
    def test_figure_spec_then_run_then_render(self, tmp_path, capsys):
        spec_path = tmp_path / "fig05.json"
        assert campaign_main(
            [
                "figure", "fig05", "--out", str(spec_path),
                "--scale", "0.2", "--sources", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "7-cell spec 'fig05'" in out

        assert campaign_main(["run", str(spec_path), "--workers", "2"]) == 0
        capsys.readouterr()
        # render from the populated store: everything cached
        assert campaign_main(
            [
                "figure", "fig05",
                "--store", str(tmp_path / "fig05.results.jsonl"),
                "--scale", "0.2", "--sources", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig 5" in out and "7 cells executed" not in out

    def test_figure_timeseries_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "fig10.json"
        assert campaign_main(
            [
                "figure", "fig10", "--out", str(spec_path),
                "--scale", "0.2", "--sources", "10", "--duration", "4",
            ]
        ) == 0
        capsys.readouterr()
        spec = CampaignSpec.load(spec_path)
        assert spec.duration == 4.0
        assert spec.mobility is not None
        assert all(cell.is_time_series for cell in spec.expand())
        assert campaign_main(["run", str(spec_path)]) == 0
        assert "4 executed" in capsys.readouterr().out

    def test_figure_unknown_id_lists_valid_ids(self, capsys):
        assert campaign_main(["figure", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "unknown artifact" in err
        # the error names the valid ids instead of a bare KeyError
        assert "fig10" in err and "mobility_rate" in err

    @pytest.mark.parametrize("exp_id", ["fig03", "fig04", "fig12"])
    def test_figure_options_reach_wrapper_ports(self, exp_id, tmp_path, capsys):
        # fig03/fig04/fig12 delegate to a sibling port; --scale etc. must
        # not be silently dropped on the way through
        spec_path = tmp_path / "spec.json"
        assert campaign_main(
            ["figure", exp_id, "--out", str(spec_path), "--scale", "0.2"]
        ) == 0
        capsys.readouterr()
        spec = CampaignSpec.load(spec_path)
        sizes = {
            (case.topology or spec.topologies[0]).num_nodes
            for case in spec.cases
        }
        assert sizes == {100}  # scaled(500, 0.2), not the N=500 default

    def test_report_default_groups_by_case(self, tmp_path, capsys):
        # case-based specs must not collapse every case into one mean±CI row
        spec = fig05_spec(scale=0.2, seed=0, radii=(1, 2, 3), num_sources=10)
        spec_path = tmp_path / "fig05.json"
        spec.save(spec_path)
        store = ResultStore(tmp_path / "fig05.results.jsonl")
        assert CampaignRunner(spec, store=store).run().ok
        assert campaign_main(
            ["report", str(spec_path), "--values", "mean_reachability"]
        ) == 0
        out = capsys.readouterr().out
        assert "case" in out
        for label in ("R=1", "R=2", "R=3"):
            assert label in out

    def test_report_csv_format(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        campaign_main(["run", str(spec_path)])
        capsys.readouterr()
        assert campaign_main(
            [
                "report", str(spec_path),
                "--values", "mean_reachability", "--format", "csv",
            ]
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert lines[0].startswith("topology,mean_reachability")
        assert len(lines) >= 2 and "," in lines[1]

    def test_report_json_format(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        campaign_main(["run", str(spec_path)])
        capsys.readouterr()
        assert campaign_main(
            [
                "report", str(spec_path),
                "--values", "mean_reachability", "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exp_id"] == "campaign:smoke"
        assert "mean_reachability" in payload["headers"]
        assert payload["rows"]

    def test_report_unknown_format_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        campaign_main(["example", "--tiny", "--out", str(spec_path)])
        capsys.readouterr()
        assert campaign_main(
            ["report", str(spec_path), "--format", "xml"]
        ) == 1
        err = capsys.readouterr().err
        assert "unknown report format 'xml'" in err


class TestXlScaleProfiles:
    """Every query-family artifact must build (and stay bounded) at xl."""

    QUERY_FAMILY = (
        "fig05", "fig06", "fig07", "fig08", "fig09",
        "fig10", "fig11", "fig12", "fig13",
        "ablation_query", "ablation_failures",
    )

    def test_every_query_family_artifact_builds_at_xl(self):
        for aid in self.QUERY_FAMILY:
            spec = ARTIFACTS[aid].spec(scale="xl")
            cells = spec.expand()
            assert cells, aid
            assert ARTIFACTS[aid].xl_defaults, aid

    def test_xl_defaults_bound_the_measured_sample(self):
        spec = ARTIFACTS["fig07"].spec(scale="xl")
        assert spec.num_sources == 400
        # a numeric scale at/above the xl profile triggers the same bounds
        assert ARTIFACTS["fig07"].spec(scale=20.0).num_sources == 400

    def test_explicit_option_beats_xl_default(self):
        spec = ARTIFACTS["fig07"].spec(scale="xl", num_sources=25)
        assert spec.num_sources == 25

    def test_paper_scale_keeps_paper_knobs(self):
        assert ARTIFACTS["fig07"].spec().num_sources is None
        assert ARTIFACTS["fig10"].spec(scale=0.2).num_sources is None
