"""Tests for the ``repro.api`` facade and the artifact registry.

Covers the redesign's contracts:

* import layering — ``repro.api`` loads no ``*.__main__`` module (the
  facade sits below every command line);
* facade ↔ ``figure`` CLI output equality for one snapshot, one series
  and one multi-seed run;
* multi-seed ``run(id, seeds=(…))`` mean ± CI shape and determinism;
* the campaign-native ``mobility_rate`` artifact.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro.api as api
from repro.artifacts.registry import ARTIFACTS
from repro.campaign.store import ResultStore


class TestFacadeBasics:
    def test_list_artifacts_covers_registry(self):
        ids = api.list_artifacts()
        assert ids == sorted(ARTIFACTS)
        for expected in ("table1", "fig07", "fig13", "mobility_rate"):
            assert expected in ids

    def test_describe_returns_metadata(self):
        artifact = api.describe("fig10")
        assert artifact.id == "fig10"
        assert artifact.regime == "series"
        assert "Fig 10" in artifact.section
        assert artifact.default_scale == 1.0
        assert artifact.default_seeds == (0,)
        # the declarative halves are directly usable
        spec = artifact.spec(scale=0.2, noc_values=(2,), duration=4.0)
        assert spec.name == "fig10"
        assert all(cell.is_time_series for cell in spec.expand())

    def test_describe_unknown_id_lists_known(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            api.describe("fig99")

    def test_run_rejects_unknown_options(self):
        with pytest.raises(TypeError, match="unknown options"):
            api.run("fig07", scale=0.2, frobnicate=3)

    def test_run_drops_inapplicable_common_knobs(self):
        # table1 takes no num_sources/duration; the CLI-style knobs are
        # dropped instead of crashing (matching the pre-flip CLI filter)
        result = api.run("table1", scale=0.12, num_sources=10, duration=4.0)
        assert len(result.rows) == 8

    def test_run_store_accepts_path(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = api.run("fig07", scale=0.2, num_sources=10,
                        noc_values=(0, 2), store=path)
        again = api.run("fig07", scale=0.2, num_sources=10,
                        noc_values=(0, 2), store=str(path))
        assert again.rows == first.rows
        assert "2 cells executed, 0 cached" in first.notes[-1]
        assert "0 cells executed, 2 cached" in again.notes[-1]

    def test_resume_false_reexecutes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        kwargs = dict(scale=0.2, num_sources=10, noc_values=(0,), store=path)
        api.run("fig07", **kwargs)
        forced = api.run("fig07", resume=False, **kwargs)
        assert "1 cells executed" in forced.notes[-1]

    @pytest.mark.parametrize(
        "kwargs, word",
        [
            ({"resume": "false"}, "resume"),
            ({"resume": 0}, "resume"),
            ({"scale": True}, "scale"),
            ({"scale": [1]}, "scale"),
        ],
    )
    def test_mistyped_resume_or_scale_rejected(self, kwargs, word):
        # truthiness reads "false" as True, and float(True) is scale 1.0
        with pytest.raises(ValueError, match=word):
            api.run("table1", **{"scale": 0.12, **kwargs})


class TestImportLayering:
    def test_facade_import_closure_holds_no_cli(self):
        # static check over the import graph: no import-time path from
        # the facade into a command line.  Function-level imports are
        # deferred and legitimately excluded.
        from pathlib import Path

        import repro
        from tools.card_lint.importgraph import build_graph

        graph = build_graph(Path(repro.__file__).parent)
        closure = graph.closure(
            ["repro.api", "repro.artifacts"], include_deferred=False,
            follow_ancestors=False,
        )
        bad = sorted(m for m in closure if m.endswith(".__main__"))
        assert not bad, f"facade import closure reaches {bad}"

    def test_api_run_never_imports_cli(self):
        # one subprocess smoke test stays: the static graph can't see
        # importlib tricks, so prove the property end-to-end once.
        code = (
            "import sys, repro.api as api; "
            "api.run('table1', scale=0.12); "
            "bad = [m for m in sys.modules if m.endswith('.__main__')]; "
            "assert not bad, f'facade loaded {bad}'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestFacadeCliEquality:
    @pytest.mark.parametrize(
        "cli_args,kwargs",
        [
            (
                ["fig05", "--scale", "0.2", "--sources", "10"],
                dict(scale=0.2, num_sources=10),
            ),
            (
                ["fig10", "--scale", "0.2", "--sources", "10",
                 "--duration", "4"],
                dict(scale=0.2, num_sources=10, duration=4.0),
            ),
            (
                ["fig07", "--scale", "0.2", "--sources", "10",
                 "--seeds", "0,1"],
                dict(scale=0.2, num_sources=10, seeds=(0, 1)),
            ),
        ],
    )
    def test_facade_matches_cli_output(self, cli_args, kwargs, capsys):
        from repro.campaign.__main__ import main

        result = api.run(cli_args[0], **kwargs)
        assert main(["figure", *cli_args]) == 0
        assert result.render() in capsys.readouterr().out

    def test_seed_with_seeds_rejected(self, capsys):
        from repro.campaign.__main__ import main

        assert main(["figure", "fig07", "--seed", "1", "--seeds", "0,1"]) == 1
        assert "not both" in capsys.readouterr().err


class TestMultiSeed:
    def test_mean_ci_shape(self, tmp_path):
        seeds = (0, 1, 2)
        result = api.run(
            "fig07",
            scale=0.2,
            num_sources=10,
            noc_values=(0, 2),
            seeds=seeds,
            store=tmp_path / "seeds.jsonl",
        )
        assert result.exp_id == "fig07"
        assert "mean ± 95% CI over 3 seeds" in result.title
        # one row per grid configuration, averaged over seeds only
        assert len(result.rows) == 2
        assert result.headers[0] == "topology"
        assert "noc" in result.headers
        assert "mean_reachability" in result.headers
        assert "mean_reachability ±95%" in result.headers
        assert result.headers[-1] == "n"
        for row in result.rows:
            assert row[-1] == len(seeds)  # every group holds one cell/seed

    def test_mean_ci_deterministic_and_cached(self, tmp_path):
        kwargs = dict(
            scale=0.2, num_sources=10, noc_values=(0, 2), seeds=(0, 1),
            store=tmp_path / "seeds.jsonl",
        )
        first = api.run("fig07", **kwargs)
        again = api.run("fig07", **kwargs)
        assert again.rows == first.rows
        assert "4 cells executed" in first.notes[-1]
        assert "0 cells executed, 4 cached" in again.notes[-1]

    def test_single_seed_tuple_is_exact_artifact(self):
        exact = api.run("fig07", scale=0.2, num_sources=10, noc_values=(0, 2))
        via_tuple = api.run(
            "fig07", scale=0.2, num_sources=10, noc_values=(0, 2), seeds=(0,)
        )
        assert via_tuple.rows == exact.rows
        assert via_tuple.headers == exact.headers

    def test_multi_seed_cells_warm_single_seed_store(self, tmp_path):
        # the widened-seed spec keeps per-cell content hashes, so the
        # multi-seed run fully warms the store for each single-seed run
        path = tmp_path / "shared.jsonl"
        api.run("fig07", scale=0.2, num_sources=10, noc_values=(0, 2),
                seeds=(0, 1), store=path)
        single = api.run("fig07", scale=0.2, num_sources=10, noc_values=(0, 2),
                         seed=1, store=path)
        assert "0 cells executed, 2 cached" in single.notes[-1]

    def test_empty_seed_tuple_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            api.run("fig07", scale=0.2, seeds=())

    def test_duplicate_seeds_rejected(self):
        # a repeated seed would enter every mean/CI group twice
        with pytest.raises(ValueError, match="duplicates"):
            api.run("fig07", scale=0.2, seeds=(0, 0, 1))

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": 1.7}, {"seed": True}, {"seeds": (0.5, 1.9)}, {"seeds": (0, True)},
         {"seeds": 3}, {"seeds": "01"}],
    )
    def test_non_integer_seeds_rejected(self, kwargs):
        # int() would truncate these into some other seed's run
        with pytest.raises(ValueError, match="seed"):
            api.run("table1", scale=0.2, **kwargs)

    def test_integral_seed_types_accepted(self):
        import numpy as np

        exact = api.run("fig07", scale=0.2, num_sources=10, noc_values=(0,), seed=1)
        again = api.run(
            "fig07", scale=0.2, num_sources=10, noc_values=(0,), seed=np.int64(1)
        )
        assert again.rows == exact.rows

    def test_seed_and_seeds_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            api.run("fig07", scale=0.2, seed=7, seeds=(0, 1))

    def test_reducer_only_options_rejected_with_seeds(self):
        # validation_rounds shapes fig14's exact reduction; the seeds=
        # variant bypasses that reducer, so accepting the option would
        # silently drop it
        assert "validation_rounds" in ARTIFACTS["fig14"].reducer_only_options()
        with pytest.raises(ValueError, match="validation_rounds"):
            api.run("fig14", scale=0.2, seeds=(0, 1), validation_rounds=9)

    @pytest.mark.parametrize("artifact_id", ["fig07", "table1"])
    def test_bit_for_bit_reducers_reject_multi_seed_specs(self, artifact_id):
        # fig07_spec/table1_spec accept seeds= for direct CampaignRunner
        # use; feeding such a spec to the exact reducer must raise, not
        # silently keep only the last seed's cells
        with pytest.raises(ValueError, match="bit-for-bit reducer"):
            ARTIFACTS[artifact_id].run(scale=0.15, seeds=(0, 1))

    def test_reduce_fig07_missing_cell_names_resume(self, tmp_path):
        fig07 = ARTIFACTS["fig07"]
        spec = fig07.spec(scale=0.2, num_sources=10, noc_values=(0, 2))
        with pytest.raises(KeyError, match=r"\(NoC=0\).*resume"):
            fig07.reduce(spec, ResultStore(tmp_path / "empty.jsonl"))

    def test_series_artifact_mean_ci(self, tmp_path):
        result = api.run(
            "ablation_recovery",
            scale=0.25,
            num_sources=10,
            duration=4.0,
            seeds=(0, 1),
            store=tmp_path / "rec.jsonl",
        )
        assert len(result.rows) == 2  # recovery ON / OFF cases
        assert "case" in result.headers
        labels = {row[result.headers.index("case")] for row in result.rows}
        assert labels == {"recovery ON", "recovery OFF"}


class TestMobilityRateArtifact:
    def test_rows_and_churn_monotone(self, tmp_path):
        result = api.run(
            "mobility_rate",
            scale=0.25,
            duration=4.0,
            num_sources=10,
            store=tmp_path / "mob.jsonl",
        )
        assert result.exp_id == "mobility_rate"
        assert [row[0] for row in result.rows] == [
            "v<=1", "v<=3", "v<=6", "v<=10",
        ]
        churn = [row[1] for row in result.rows]
        assert all(c >= 0 for c in churn)
        # faster RWP must churn more links per step than the slowest band
        assert churn[-1] > churn[0]
        # substrate refresh accounting is recorded per speed band
        for row in result.rows:
            assert row[5] + row[6] >= 1  # incremental + full refreshes

    def test_registered_through_artifact_api(self):
        artifact = api.describe("mobility_rate")
        assert artifact.regime == "series"
        assert not artifact.multi_seed
        spec = artifact.spec(scale=0.25, duration=4.0)
        assert set(spec.metrics) == {"series", "contacts", "churn"}
        assert {c.mobility.max_speed for c in spec.cases} == {1.0, 3.0, 6.0, 10.0}

    def test_speed_sweep_configurable(self):
        spec = api.describe("mobility_rate").spec(
            scale=0.25, max_speeds=(2.0, 4.0)
        )
        assert [c.label for c in spec.cases] == ["v<=2", "v<=4"]
