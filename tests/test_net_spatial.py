"""Tests for the uniform-grid spatial index and unit-disk edge builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.spatial import UniformGrid, build_unit_disk_edges


def brute_force_edges(positions, tx):
    """O(N^2) reference implementation."""
    n = len(positions)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= tx + 1e-12:
                out.append((i, j))
    return sorted(out)


class TestUniformGrid:
    def test_cell_count(self):
        g = UniformGrid(100.0, 50.0, 10.0)
        assert g.nx == 10 and g.ny == 5

    def test_cell_indices_clip(self):
        g = UniformGrid(100.0, 100.0, 10.0)
        pos = np.array([[0.0, 0.0], [99.9, 99.9], [100.0, 100.0]])
        idx = g.cell_indices(pos)
        assert idx[0] == 0
        assert idx[1] == idx[2] == g.nx * g.ny - 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            UniformGrid(0.0, 10.0, 1.0)


class TestUnitDiskEdges:
    def test_matches_brute_force_fixed(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 200, size=(60, 2))
        edges = build_unit_disk_edges(pos, 50.0, (200.0, 200.0))
        assert [tuple(e) for e in edges] == brute_force_edges(pos, 50.0)

    def test_empty_and_single(self):
        assert build_unit_disk_edges(np.empty((0, 2)), 10.0, (5.0, 5.0)).shape == (0, 2)
        assert build_unit_disk_edges(np.array([[1.0, 1.0]]), 10.0, (5.0, 5.0)).shape == (0, 2)

    def test_boundary_distance_inclusive(self):
        pos = np.array([[0.0, 0.0], [50.0, 0.0]])
        edges = build_unit_disk_edges(pos, 50.0, (100.0, 100.0))
        assert len(edges) == 1

    def test_just_out_of_range(self):
        pos = np.array([[0.0, 0.0], [50.001, 0.0]])
        edges = build_unit_disk_edges(pos, 50.0, (100.0, 100.0))
        assert len(edges) == 0

    def test_canonical_ordering(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 100, size=(30, 2))
        edges = build_unit_disk_edges(pos, 30.0, (100.0, 100.0))
        assert all(u < v for u, v in edges)
        keys = [u * 30 + v for u, v in edges]
        assert keys == sorted(keys)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            build_unit_disk_edges(np.zeros((3, 3)), 10.0, (5.0, 5.0))

    def test_range_larger_than_area(self):
        """Everyone connects when tx covers the whole area."""
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 10, size=(12, 2))
        edges = build_unit_disk_edges(pos, 100.0, (10.0, 10.0))
        assert len(edges) == 12 * 11 // 2

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        tx=st.floats(5.0, 120.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_brute_force_property(self, n, tx, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 150, size=(n, 2))
        edges = build_unit_disk_edges(pos, tx, (150.0, 150.0))
        assert [tuple(e) for e in edges] == brute_force_edges(pos, tx)
