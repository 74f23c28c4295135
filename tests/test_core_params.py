"""Tests for CARDParams validation and derived quantities."""

import pytest

from repro.core.params import CARDParams, SelectionMethod


class TestValidation:
    def test_defaults_valid(self):
        p = CARDParams()
        assert p.R == 3 and p.r == 10 and p.noc == 5

    def test_r_must_exceed_2R(self):
        with pytest.raises(ValueError, match="2R"):
            CARDParams(R=4, r=7)

    def test_r_equal_2R_allowed(self):
        CARDParams(R=3, r=6)  # degenerate but legal (Fig 6's first point)

    def test_noc_zero_allowed(self):
        assert CARDParams(noc=0).noc == 0

    def test_negative_noc_rejected(self):
        with pytest.raises(ValueError):
            CARDParams(noc=-1)

    def test_depth_positive(self):
        with pytest.raises(ValueError):
            CARDParams(depth=0)

    def test_pm_equation_choices(self):
        CARDParams(pm_equation=1)
        CARDParams(pm_equation=2)
        with pytest.raises(ValueError):
            CARDParams(pm_equation=3)

    def test_method_type_checked(self):
        with pytest.raises(TypeError):
            CARDParams(method="EM")

    def test_non_integer_radius_rejected(self):
        with pytest.raises(TypeError):
            CARDParams(R=2.5)

    def test_validation_period_positive(self):
        with pytest.raises(ValueError):
            CARDParams(validation_period=0.0)

    def test_max_walk_steps_validated(self):
        with pytest.raises(ValueError):
            CARDParams(max_walk_steps=0)
        assert CARDParams(max_walk_steps=10).max_walk_steps == 10

    def test_frozen(self):
        p = CARDParams()
        with pytest.raises(Exception):
            p.R = 5


class TestDerived:
    def test_contact_band(self):
        assert CARDParams(R=3, r=10).contact_band == (6, 10)

    def test_describe_mentions_method(self):
        em = CARDParams().describe()
        pm = CARDParams(method=SelectionMethod.PM, pm_equation=1).describe()
        assert "EM" in em
        assert "PM" in pm and "eq1" in pm


class TestAdmissionProbability:
    def test_eq1_endpoints(self):
        p = CARDParams(R=3, r=9, pm_equation=1)
        assert p.admission_probability(3) == 0.0
        assert p.admission_probability(9) == 1.0
        assert p.admission_probability(6) == pytest.approx(0.5)

    def test_eq2_endpoints(self):
        p = CARDParams(R=3, r=12, pm_equation=2)
        assert p.admission_probability(6) == 0.0
        assert p.admission_probability(12) == 1.0
        assert p.admission_probability(9) == pytest.approx(0.5)

    def test_clamped_outside(self):
        p = CARDParams(R=3, r=12, pm_equation=2)
        assert p.admission_probability(2) == 0.0
        assert p.admission_probability(50) == 1.0

    def test_degenerate_band_is_step(self):
        p = CARDParams(R=3, r=6, pm_equation=2)
        assert p.admission_probability(5) == 0.0
        assert p.admission_probability(6) == 1.0

    def test_monotone_in_d(self):
        p = CARDParams(R=3, r=15, pm_equation=2)
        probs = [p.admission_probability(d) for d in range(0, 20)]
        assert probs == sorted(probs)
