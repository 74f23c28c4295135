"""Every registered artifact runs at a tiny scale through ``repro.api`` and
produces a well-formed, renderable result with the paper's qualitative
shape where that is cheap to assert."""

import pytest

import repro.api as api
from repro.api import run as run_experiment
from repro.artifacts.result import ExperimentResult
from repro.scenarios.factory import sample_sources, scaled

TINY = dict(scale=0.25, seed=0)
FEW_SOURCES = dict(num_sources=25)


class TestBaseHelpers:
    def test_scaled_bounds(self):
        assert scaled(100, 0.5) == 50
        assert scaled(100, 0.001, minimum=10) == 10
        # scales above 1 grow the experiment (the xl profile is 20x)
        assert scaled(100, 1.5) == 150
        assert scaled(500, "xl") == 10000
        with pytest.raises(ValueError):
            scaled(100, 0.0)
        with pytest.raises(ValueError):
            scaled(100, 1000.0)
        with pytest.raises(ValueError, match="profile"):
            scaled(100, "huge")

    def test_sample_sources(self):
        assert sample_sources(10, None, 0) is None
        assert sample_sources(10, 20, 0) is None
        picks = sample_sources(100, 5, 0)
        assert len(picks) == 5
        assert picks == sorted(picks)
        assert sample_sources(100, 5, 0) == sample_sources(100, 5, 0)

    def test_result_render(self):
        res = ExperimentResult(
            "x", "Title", ["a"], [[1]], notes=["n"], plots=["PLOT"]
        )
        out = res.render()
        assert "Title" in out and "PLOT" in out and "note: n" in out


class TestRegistry:
    def test_known_ids_present(self):
        for exp_id in (
            "table1", "fig03", "fig05", "fig07", "fig10", "fig14", "fig15",
            "ablation_recovery",
        ):
            assert exp_id in api.list_artifacts()

    def test_unknown_id_raises_with_listing(self):
        with pytest.raises(ValueError, match="fig07"):
            api.describe("nonsense")
        with pytest.raises(ValueError, match="fig07"):
            run_experiment("nonsense")


class TestTable1:
    def test_rows_and_reference_columns(self):
        res = run_experiment("table1", scale=0.2)
        assert len(res.rows) == 8
        # paper reference values present verbatim
        assert res.rows[4][5] == 1854  # scenario 5 links (paper)
        assert res.render()


class TestReachabilityFigures:
    def test_fig03_em_beats_pm(self):
        res = run_experiment("fig03", scale=0.3, seed=0, max_noc=4, num_sources=30)
        em_final = res.raw["em"][-1][1]
        pm_final = res.raw["pm"][-1][1]
        assert em_final >= pm_final

    def test_fig04_pm_backtracks_more(self):
        res = run_experiment("fig04", scale=0.3, seed=0, max_noc=3, num_sources=30)
        pm_back = res.raw["pm"][-1][3]
        em_back = res.raw["em"][-1][3]
        assert pm_back >= em_back

    def test_fig05_distribution_mass(self):
        res = run_experiment("fig05", scale=0.25, seed=0, radii=(1, 2, 3), **FEW_SOURCES)
        for label in ("R=1", "R=2", "R=3"):
            col = res.raw["columns"][label]
            assert col.sum() == 25

    def test_fig06_reachability_grows_with_r(self):
        res = run_experiment(
            "fig06", scale=0.3, seed=0, deltas=(0, 4, 8), **FEW_SOURCES
        )
        means = res.raw["means"]
        assert means["r=2R+8"] >= means["r=2R"]

    def test_fig07_saturates(self):
        res = run_experiment(
            "fig07", scale=0.3, seed=0, noc_values=(0, 2, 4, 8), **FEW_SOURCES
        )
        means = res.raw["means"]
        assert means["NoC=2"] > means["NoC=0"]
        assert means["NoC=8"] >= means["NoC=4"] >= means["NoC=2"]

    def test_fig08_depth_monotone(self):
        res = run_experiment("fig08", scale=0.3, seed=0, depths=(1, 2), **FEW_SOURCES)
        means = res.raw["means"]
        assert means["D=2"] >= means["D=1"]

    def test_fig09_three_sizes(self):
        res = run_experiment("fig09", scale=0.15, seed=0, **FEW_SOURCES)
        assert len(res.raw["columns"]) == 3


class TestTimeSeriesFigures:
    # campaign-first raw payloads are the stored cells' metrics dicts
    def test_fig10_overhead_grows_with_noc(self):
        res = run_experiment(
            "fig10", scale=0.2, seed=0, noc_values=(2, 6), duration=6.0,
            num_sources=20,
        )
        lo = sum(res.raw["NoC=2"]["overhead"])
        hi = sum(res.raw["NoC=6"]["overhead"])
        assert hi >= lo

    def test_fig11_12_share_shape(self):
        res11 = run_experiment(
            "fig11", scale=0.2, seed=0, r_values=(8, 12), duration=4.0,
            num_sources=20,
        )
        res12 = run_experiment(
            "fig12", scale=0.2, seed=0, r_values=(8, 12), duration=4.0,
            num_sources=20,
        )
        assert len(res11.rows) == len(res12.rows) == 2
        # backtracking is a component of total overhead
        for rv in ("r=8", "r=12"):
            total = sum(res11.raw[rv]["overhead"])
            back = sum(res12.raw[rv]["backtracking"])
            assert back <= total + 1e-9

    def test_fig13_series_lengths(self):
        res = run_experiment("fig13", scale=0.3, seed=0, duration=8.0, num_sources=20)
        series = res.raw["series"]
        assert len(series["times"]) == 4
        assert len(series["total_contacts"]) == 4


class TestComparisonFigures:
    def test_fig14_normalized_in_unit_interval(self):
        res = run_experiment("fig14", scale=0.25, seed=0, max_noc=4, **FEW_SOURCES)
        for row in res.rows:
            assert 0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0
        # overhead normalized curve peaks at the max NoC
        assert res.rows[-1][2] == pytest.approx(1.0)

    def test_fig14_curves_scaled_by_their_own_peaks(self):
        res = run_experiment("fig14", scale=0.25, seed=0, max_noc=4, **FEW_SOURCES)
        reach_peak = max(row[3] for row in res.rows)
        overhead_peak = max(row[4] for row in res.rows)
        for row in res.rows:
            # columns 3/4 are the raw values rounded to 2 and 1 places
            assert row[1] == pytest.approx(row[3] / reach_peak, abs=2e-3)
            assert row[2] == pytest.approx(row[4] / overhead_peak, abs=2e-3)

    def test_fig14_flat_zero_overhead_stays_zero(self):
        # NoC=0 selects nothing: the overhead series is all zeros and its
        # normalised column must read 0.0, not divide by its zero peak
        res = run_experiment("fig14", scale=0.2, seed=0, max_noc=0, **FEW_SOURCES)
        assert [row[2] for row in res.rows] == [0.0]
        assert [row[1] for row in res.rows] == [1.0]

    def test_fig15_card_beats_flooding(self):
        res = run_experiment("fig15", scale=0.25, seed=0, num_queries=15)
        for row in res.rows:
            flooding, card = row[1], row[3]
            assert card < flooding


class TestAblations:
    def test_pm_eq_overlap_ordering(self):
        res = run_experiment("ablation_pm_eq", scale=0.25, seed=0, **FEW_SOURCES)
        by = {row[0]: row for row in res.rows}
        # EM eliminates overlap entirely
        assert by["EM"][1] == 0.0
        # eq.(1) overlaps at least as much as eq.(2)
        assert by["PM eq.1"][1] >= by["PM eq.2"][1]

    def test_overlap_ablation_full_em_clean(self):
        res = run_experiment("ablation_overlap", scale=0.25, seed=0, **FEW_SOURCES)
        by = {row[0]: row for row in res.rows}
        assert by["full EM"][1] == 0.0
        assert by["no edge check"][1] >= by["full EM"][1]

    def test_recovery_ablation_rows(self):
        res = run_experiment(
            "ablation_recovery", scale=0.3, seed=0, duration=6.0, num_sources=20
        )
        by = {row[0]: row for row in res.rows}
        # recovery keeps at least as many contacts alive
        assert by["recovery ON"][1] <= by["recovery OFF"][1] or by[
            "recovery ON"
        ][5] >= by["recovery OFF"][5]

    def test_query_ablation_card_cheaper_than_ring(self):
        res = run_experiment(
            "ablation_query", scale=0.3, seed=0, num_queries=10
        )
        by = {row[0]: row for row in res.rows}
        assert by["CARD DSQ (dedup)"][1] <= by["Expanding ring"][1]

    def test_mobility_ablation_rows(self):
        res = run_experiment(
            "ablation_mobility", scale=0.25, seed=0, duration=4.0, num_sources=15
        )
        assert {row[0] for row in res.rows} == {"RWP", "RandomWalk", "GaussMarkov"}

    def test_edge_policy_ablation(self):
        res = run_experiment(
            "ablation_edge_policy", scale=0.25, seed=0, **FEW_SOURCES
        )
        assert {row[0] for row in res.rows} == {"random", "spread", "degree"}
        for row in res.rows:
            assert row[2] > 0  # every policy finds contacts

    def test_failures_ablation_phases(self):
        res = run_experiment(
            "ablation_failures", scale=0.25, seed=0, num_queries=12
        )
        assert [row[0] for row in res.rows] == [
            "before crash", "after crash", "after repair",
        ]
        ok_before, _ = res.raw["before"]
        ok_crash, _ = res.raw["crash"]
        assert ok_crash <= ok_before


class TestExtensionExperiments:
    def test_smallworld_monotone_contraction(self):
        res = run_experiment("smallworld", scale=0.25, seed=0, **FEW_SOURCES)
        reports = res.raw
        ks = sorted(reports)
        lengths = [reports[k]["augmented_path_length"] for k in ks]
        assert all(b <= a + 1e-9 for a, b in zip(lengths, lengths[1:]))
        # coverage never decreases with more contacts
        coverage = [reports[k]["coverage"] for k in ks]
        assert all(b >= a - 1e-9 for a, b in zip(coverage, coverage[1:]))

    def test_smallworld_clustering_invariant(self):
        res = run_experiment("smallworld", scale=0.25, seed=0, **FEW_SOURCES)
        clusterings = {round(rep["clustering"], 9) for rep in res.raw.values()}
        assert len(clusterings) == 1
