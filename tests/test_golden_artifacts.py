"""The golden-output artifact matrix (``pytest -m parity``).

Successor of the deleted legacy-oracle parity matrix: every registered
artifact, run through the campaign path at the small-N configurations in
:mod:`golden_matrix`, must equal its pinned fixture under
``tests/golden/`` bit-for-bit — headers, rows and ASCII plots — across
two seeds and two worker counts.  The fixtures were captured from the
last validated build, so a red test means the artifact's *output*
changed, not merely its implementation.

Deliberate output changes regenerate fixtures with::

    PYTHONPATH=src python tests/golden/regen.py [id ...]
"""

from __future__ import annotations

import pytest

import golden_matrix
from repro.artifacts.registry import ARTIFACTS, artifact_ids, get_artifact
from repro.campaign.store import ResultStore

#: (seed, workers) pairs: ≥2 seeds and ≥2 worker counts per id, without
#: quadrupling the matrix (worker count must never change any output)
SEED_WORKER_MATRIX = [(0, 1), (1, 2)]


@pytest.mark.parity
class TestGoldenMatrix:
    @pytest.mark.parametrize("seed,n_workers", SEED_WORKER_MATRIX)
    @pytest.mark.parametrize("exp_id", golden_matrix.artifact_ids())
    def test_campaign_path_matches_golden_fixture(
        self, exp_id, seed, n_workers, tmp_path
    ):
        golden = golden_matrix.load_fixture(exp_id)[str(seed)]
        kwargs = dict(golden_matrix.GOLDEN_KWARGS[exp_id], seed=seed)
        store = ResultStore(tmp_path / "store.jsonl")
        result = golden_matrix.run_golden(
            exp_id, seed, store=store, workers=n_workers
        )
        table = golden_matrix.table_view(result)
        assert table["headers"] == golden["headers"]
        assert table["rows"] == golden["rows"]
        assert table["plots"] == golden["plots"]
        # identity, title, notes and the raw keys test_paper_claims indexes into
        assert golden_matrix.meta_view(result) == (
            golden_matrix.load_fixture("meta")[exp_id][str(seed)]
        )
        # a second invocation against the same store is pure cache and
        # still reduces to the identical artifact
        again = ARTIFACTS[exp_id].run(
            store=ResultStore(tmp_path / "store.jsonl"),
            n_workers=1,
            **kwargs,
        )
        assert golden_matrix.canon([list(r) for r in again.rows]) == golden["rows"]

    @pytest.mark.parametrize("exp_id", golden_matrix.artifact_ids())
    def test_cell_content_hashes_match_parent_build(self, exp_id):
        # stores written by earlier builds must stay warm: the full set of
        # cell keys per artifact and seed is pinned, not just the tables
        pinned = golden_matrix.load_fixture("cell_keys")[exp_id]
        for seed in golden_matrix.GOLDEN_SEEDS:
            assert golden_matrix.cell_keys(exp_id, seed) == pinned[str(seed)]


class TestGoldenCoverage:
    def test_every_artifact_is_in_the_matrix(self):
        assert set(golden_matrix.GOLDEN_KWARGS) == set(ARTIFACTS)

    def test_every_artifact_has_a_fixture(self):
        for exp_id in ARTIFACTS:
            path = golden_matrix.fixture_path(exp_id)
            assert path.exists(), f"{exp_id}: missing golden fixture {path}"
            fixture = golden_matrix.load_fixture(exp_id)
            for seed in golden_matrix.GOLDEN_SEEDS:
                assert str(seed) in fixture, f"{exp_id}: no fixture seed {seed}"
                for key in ("headers", "rows", "plots"):
                    assert key in fixture[str(seed)]

    def test_cross_artifact_fixtures_cover_every_artifact(self):
        for name in ("meta", "cell_keys", "options"):
            assert set(golden_matrix.load_fixture(name)) == set(ARTIFACTS), name

    def test_accepted_option_names_match_parent_build(self):
        # zero new options: each artifact accepts exactly the names the
        # pre-declarative build's signatures did, and the same ones are
        # reducer-only (refused by the seeds= path)
        pinned = golden_matrix.load_fixture("options")
        for exp_id, artifact in ARTIFACTS.items():
            with pytest.raises(TypeError) as err:
                artifact.spec(no_such_option=1)
            accepted = str(err.value).split("it accepts: ")[1]
            assert accepted == str(pinned[exp_id]["accepted"]), exp_id
            assert sorted(artifact.reducer_only_options()) == (
                pinned[exp_id]["reducer_only"]
            ), exp_id

    def test_derived_artifacts_marked(self):
        assert {a.id for a in ARTIFACTS.values() if a.derived} == {"fig03_04"}

    def test_multi_seed_artifacts_marked(self):
        multi = {a_id for a_id, a in ARTIFACTS.items() if a.multi_seed}
        assert multi == {"fig07_ci", "table1_ci"}

    def test_artifact_lookup(self):
        assert get_artifact("fig10").id == "fig10"
        with pytest.raises(ValueError, match="unknown artifact"):
            get_artifact("nonsense")
        assert artifact_ids() == sorted(ARTIFACTS)

    def test_legacy_oracle_package_is_gone(self):
        # the oracles outlived their usefulness (ROADMAP follow-up);
        # nothing may silently resurrect the module
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.legacy  # noqa: F401
