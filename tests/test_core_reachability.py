"""Tests for the reachability metric and its distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reachability import (
    DIST_BIN_EDGES,
    PackedMembership,
    _popcount,
    contact_ids_map,
    reachability_all,
    reachability_distribution,
)
from repro.core.state import Contact, ContactTable
from repro.net.substrate import SparseMembership
from tests.oracles import reachability_percent


def line_membership(n, radius):
    """Membership matrix of an n-node line graph."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) <= radius


class TestReachabilityPercent:
    def test_no_contacts_is_neighborhood_only(self):
        m = line_membership(20, 2)
        r = reachability_percent(m, {}, source=10, depth=1)
        assert r == pytest.approx(100.0 * 5 / 20)

    def test_one_contact_unions_neighborhoods(self):
        m = line_membership(20, 2)
        r = reachability_percent(m, {10: [16]}, source=10, depth=1)
        # 8..12 plus 14..18 = 10 nodes
        assert r == pytest.approx(50.0)

    def test_overlapping_contact_adds_less(self):
        m = line_membership(20, 2)
        far = reachability_percent(m, {10: [16]}, 10, 1)
        near = reachability_percent(m, {10: [13]}, 10, 1)
        assert near < far

    def test_depth_zero_ignores_contacts(self):
        m = line_membership(20, 2)
        r = reachability_percent(m, {10: [16]}, 10, depth=0)
        assert r == pytest.approx(25.0)

    def test_depth_two_follows_contacts_of_contacts(self):
        m = line_membership(30, 2)
        contacts = {0: [6], 6: [12]}
        d1 = reachability_percent(m, contacts, 0, 1)
        d2 = reachability_percent(m, contacts, 0, 2)
        assert d2 > d1
        # N(0)={0,1,2} (edge of the line), N(6)={4..8}, N(12)={10..14}
        assert d2 == pytest.approx(100.0 * 13 / 30)

    def test_contact_cycle_terminates(self):
        m = line_membership(20, 2)
        contacts = {0: [6], 6: [0]}
        r = reachability_percent(m, contacts, 0, depth=5)
        # N(0)={0,1,2} ∪ N(6)={4..8} = 8 nodes; the cycle adds nothing
        assert r == pytest.approx(100.0 * 8 / 20)

    def test_monotone_in_depth(self):
        m = line_membership(40, 2)
        contacts = {i: [i + 6] for i in range(0, 34)}
        vals = [reachability_percent(m, contacts, 0, d) for d in range(5)]
        assert vals == sorted(vals)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            reachability_percent(line_membership(5, 1), {}, 0, depth=-1)


class TestReachabilityAll:
    def test_shape_and_subset(self):
        m = line_membership(10, 1)
        allv = reachability_all(m, {}, None, 1)
        assert allv.shape == (10,)
        subset = reachability_all(m, {}, [0, 5], 1)
        assert subset.shape == (2,)
        assert subset[0] == allv[0] and subset[1] == allv[5]


def random_membership(n, seed, density=0.15):
    """A random symmetric reflexive membership matrix (like a real band)."""
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) < density
    m |= m.T
    np.fill_diagonal(m, True)
    return m


def to_sparse(m):
    """Dense bool matrix → the CSR membership backend."""
    indptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(m.sum(axis=1), out=indptr[1:])
    indices = np.concatenate([np.flatnonzero(row) for row in m]).astype(np.int64)
    return SparseMembership(indptr, indices, m.shape[0])


def random_contacts(n, seed, per_node=3):
    rng = np.random.default_rng(seed + 1)
    return {
        int(u): [int(c) for c in rng.choice(n, size=per_node, replace=False)]
        for u in rng.choice(n, size=n // 2, replace=False)
    }


class TestReachabilityAllPacked:
    """The packed OR-reduction pass must equal the per-source reference."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), depth=st.integers(0, 3))
    def test_matches_reference_dense_and_sparse(self, seed, depth):
        n = 60
        m = random_membership(n, seed)
        contacts = random_contacts(n, seed)
        expected = np.array(
            [reachability_percent(m, contacts, s, depth) for s in range(n)]
        )
        for member in (m, to_sparse(m)):
            got = reachability_all(member, contacts, None, depth)
            assert np.array_equal(got, expected)

    def test_subset_matches_reference(self):
        n = 80
        m = random_membership(n, 7)
        contacts = random_contacts(n, 7)
        srcs = [3, 41, 77]
        for depth in (0, 1, 2):
            got = reachability_all(m, contacts, srcs, depth)
            expected = np.array(
                [reachability_percent(m, contacts, s, depth) for s in srcs]
            )
            assert np.array_equal(got, expected)

    def test_packed_popcount_equals_row_sum(self):
        m = random_membership(33, 11)  # n not a multiple of 64: padding bits
        packed = PackedMembership.from_membership(m)
        for u in range(33):
            assert _popcount(packed.row(u)) == int(m[u].sum())

    def test_non_integer_sources_rejected(self):
        m = random_membership(10, 0)
        with pytest.raises(TypeError):
            reachability_all(m, {}, [1.5], 1)
        with pytest.raises(TypeError):
            reachability_all(m, {}, [np.float64(3.0)], 1)

    def test_out_of_range_sources_rejected(self):
        m = random_membership(10, 0)
        with pytest.raises(ValueError):
            reachability_all(m, {}, [10], 1)
        with pytest.raises(ValueError):
            reachability_all(m, {}, [-1], 1)

    def test_depth_zero_short_circuit_no_densify(self):
        m = random_membership(40, 5)
        sparse = to_sparse(m)
        got = reachability_all(sparse, {40 // 2: [1]}, None, 0)
        expected = 100.0 * m.sum(axis=1).astype(float) / 40
        assert np.array_equal(got, expected)

    def test_numpy_integer_sources_accepted(self):
        m = random_membership(12, 2)
        got = reachability_all(m, {}, np.arange(5, dtype=np.int32), 1)
        assert got.shape == (5,)

    def test_empty_sources(self):
        m = random_membership(10, 0)
        assert reachability_all(m, {}, [], 1).shape == (0,)


class TestDistribution:
    def test_mass_conserved(self):
        p = np.array([3.0, 17.0, 55.0, 100.0, 0.0])
        counts = reachability_distribution(p)
        assert counts.sum() == 5
        assert counts.shape == (20,)

    def test_bin_placement_right_closed(self):
        counts = reachability_distribution(np.array([5.0]))
        assert counts[0] == 1  # 5% belongs to the (0,5] bin
        counts = reachability_distribution(np.array([5.01]))
        assert counts[1] == 1

    def test_zero_lands_in_first_bin(self):
        assert reachability_distribution(np.array([0.0]))[0] == 1

    def test_hundred_lands_in_last_bin(self):
        assert reachability_distribution(np.array([100.0]))[19] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reachability_distribution(np.array([101.0]))
        with pytest.raises(ValueError):
            reachability_distribution(np.array([-1.0]))

    def test_bin_edges_shape(self):
        assert list(DIST_BIN_EDGES) == list(range(5, 105, 5))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=0, max_size=50))
    def test_property_mass_conserved(self, values):
        counts = reachability_distribution(np.array(values))
        assert counts.sum() == len(values)


class TestContactIdsMap:
    def test_ids_in_selection_order(self):
        t = ContactTable(0)
        for node in (5, 9, 13):
            t.add(Contact(node=node, path=[0, node]))
        assert contact_ids_map({0: t})[0] == (5, 9, 13)

    def test_empty_table_maps_to_no_ids(self):
        assert contact_ids_map({0: ContactTable(0)}) == {0: ()}
