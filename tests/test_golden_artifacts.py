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
from repro.experiments.registry import (
    DERIVED_EXPERIMENTS,
    EXPERIMENTS,
    run_experiment,
)

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
        result = run_experiment(exp_id, store=store, n_workers=n_workers, **kwargs)
        assert golden_matrix.canon(list(result.headers)) == golden["headers"]
        assert golden_matrix.canon([list(r) for r in result.rows]) == golden["rows"]
        assert golden_matrix.canon(list(result.plots)) == golden["plots"]
        assert result.exp_id == exp_id
        # a second invocation against the same store is pure cache and
        # still reduces to the identical artifact
        again = ARTIFACTS[exp_id].run(
            store=ResultStore(tmp_path / "store.jsonl"),
            n_workers=1,
            **kwargs,
        )
        assert golden_matrix.canon([list(r) for r in again.rows]) == golden["rows"]


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

    def test_one_registered_name_per_artifact(self):
        assert set(EXPERIMENTS) == set(ARTIFACTS)
        assert DERIVED_EXPERIMENTS <= set(ARTIFACTS)

    def test_multi_seed_artifacts_marked(self):
        multi = {a_id for a_id, a in ARTIFACTS.items() if a.multi_seed}
        assert multi == {"fig07_ci", "table1_ci"}

    def test_artifact_lookup(self):
        assert get_artifact("fig10").exp_id == "fig10"
        with pytest.raises(ValueError, match="unknown artifact"):
            get_artifact("nonsense")
        assert artifact_ids() == sorted(ARTIFACTS)

    def test_legacy_oracle_package_is_gone(self):
        # the oracles outlived their usefulness (ROADMAP follow-up);
        # nothing may silently resurrect the module
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.legacy  # noqa: F401
