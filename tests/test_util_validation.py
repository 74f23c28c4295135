"""Tests for repro.util.validation."""

import math

import numpy as np
import pytest

from repro.util.validation import (
    check_in_range,
    check_int,
    check_node_id,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", bad)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", math.nan)
        with pytest.raises(ValueError):
            check_positive("x", math.inf)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", -1e-9)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 5])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            check_probability("p", bad)


class TestCheckInRange:
    def test_inclusive_default(self):
        assert check_in_range("x", 5, 5, 10) == 5
        assert check_in_range("x", 10, 5, 10) == 10

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 5, 5, 10, low_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("x", 10, 5, 10, high_inclusive=False)

    def test_error_message_shows_interval(self):
        with pytest.raises(ValueError, match=r"\(5, 10\]"):
            check_in_range("x", 5, 5, 10, low_inclusive=False)


class TestCheckInt:
    def test_accepts_int(self):
        assert check_int("n", 7) == 7

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_int("n", True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_int("n", 3.0)

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            check_int("n", "3")


class TestCheckNodeId:
    @pytest.mark.parametrize("ok", [0, 7, 9, np.int64(3), np.int32(9)])
    def test_accepts_integral_ids_in_range(self, ok):
        got = check_node_id(ok, 10)
        assert got == int(ok) and type(got) is int

    @pytest.mark.parametrize("bad", [-1, -10, 10, 11])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=f"node id {bad} out of range for 10"):
            check_node_id(bad, 10)

    @pytest.mark.parametrize("bad", [2.0, 2.5, "3", None])
    def test_rejects_non_integral(self, bad):
        with pytest.raises(TypeError, match="target ids must be integers"):
            check_node_id(bad, 10, "target")
