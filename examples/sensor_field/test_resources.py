"""Tests for the resource layer: registry and any-provider discovery."""

import numpy as np
import pytest

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.net.network import Network
from tests.conftest import line_topology, random_topology

from resources.discovery import ResourceQueryEngine
from resources.registry import ResourceRegistry


class TestRegistry:
    def test_register_and_lookup(self):
        reg = ResourceRegistry()
        reg.register("gateway", 7)
        reg.register("gateway", 3)
        assert list(reg.providers("gateway")) == [3, 7]
        assert reg.has_provider("gateway")
        assert "gateway" in reg

    def test_provides_reverse_index(self):
        reg = ResourceRegistry()
        reg.register("a", 1)
        reg.register("b", 1)
        assert reg.provides(1) == ("a", "b")
        assert reg.provides(2) == ()

    def test_register_many(self):
        reg = ResourceRegistry()
        reg.register_many("sink", [1, 2, 3])
        assert len(reg.providers("sink")) == 3

    def test_deregister(self):
        reg = ResourceRegistry()
        reg.register("a", 1)
        reg.deregister("a", 1)
        assert not reg.has_provider("a")
        assert len(reg) == 0

    def test_deregister_unknown_raises(self):
        reg = ResourceRegistry()
        with pytest.raises(KeyError):
            reg.deregister("a", 1)

    def test_deregister_node(self):
        reg = ResourceRegistry()
        reg.register("a", 1)
        reg.register("b", 1)
        reg.register("a", 2)
        reg.deregister_node(1)
        assert reg.provides(1) == ()
        assert list(reg.providers("a")) == [2]
        assert not reg.has_provider("b")

    def test_empty_key_rejected(self):
        reg = ResourceRegistry()
        with pytest.raises(ValueError):
            reg.register("", 1)

    def test_providers_in_zone_view(self):
        reg = ResourceRegistry()
        reg.register_many("x", [2, 5, 9])
        members = np.array([1, 2, 3, 9])
        assert list(reg.providers_in("x", members)) == [2, 9]
        assert reg.providers_in("missing", members).size == 0

    def test_resources_sorted(self):
        reg = ResourceRegistry()
        reg.register("b", 1)
        reg.register("a", 2)
        assert reg.resources() == ["a", "b"]


def build_engine(topo, params, registry, seed=1):
    card = CARDProtocol(Network(topo), params, seed=seed)
    card.bootstrap()
    engine = ResourceQueryEngine(
        card.network, card.tables, params, card.contact_tables, registry
    )
    return card, engine


class TestResourceDiscovery:
    def test_provider_in_own_zone_is_free(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, noc=2, depth=2)
        reg = ResourceRegistry()
        reg.register("water", 2)
        _, engine = build_engine(topo, params, reg)
        res = engine.query(0, "water")
        assert res.success and res.depth_found == 0
        assert res.provider == 2
        assert res.msgs == 0
        assert res.path == [0, 1, 2]

    def test_nearest_provider_chosen(self):
        topo = line_topology(20)
        params = CARDParams(R=3, r=8, noc=2)
        reg = ResourceRegistry()
        reg.register("water", 3)
        reg.register("water", 1)
        _, engine = build_engine(topo, params, reg)
        res = engine.query(0, "water")
        assert res.provider == 1  # one hop beats three

    def test_discovery_through_contacts(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=4)
        params = CARDParams(R=2, r=7, noc=4, depth=3)
        reg = ResourceRegistry()
        rng = np.random.default_rng(0)
        providers = [int(p) for p in rng.choice(150, 5, replace=False)]
        reg.register_many("sink", providers)
        card, engine = build_engine(topo, params, reg, seed=4)
        hits = 0
        for source in range(0, 60, 3):
            res = engine.query(source, "sink")
            if res.success:
                hits += 1
                assert res.provider in providers
                # returned route is walkable and ends at the provider
                assert res.path[0] == source and res.path[-1] == res.provider
                for a, b in zip(res.path, res.path[1:]):
                    assert topo.are_neighbors(a, b)
        assert hits > 10  # most sources find a provider

    def test_missing_resource_fails_with_bounded_traffic(self):
        topo = random_topology(n=100, seed=5)
        params = CARDParams(R=2, r=7, noc=3, depth=2)
        reg = ResourceRegistry()
        _, engine = build_engine(topo, params, reg, seed=5)
        res = engine.query(0, "unobtainium")
        assert not res.success and res.provider is None
        assert res.msgs >= 0

    def test_deeper_search_finds_more(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=6)
        params = CARDParams(R=2, r=7, noc=3, depth=3)
        reg = ResourceRegistry()
        reg.register("rare", 149)
        card, engine = build_engine(topo, params, reg, seed=6)
        shallow = sum(
            engine.query(s, "rare", max_depth=1).success for s in range(30)
        )
        deep = sum(
            engine.query(s, "rare", max_depth=3).success for s in range(30)
        )
        assert deep >= shallow

    def test_provider_death_respected(self):
        """Deregistered (dead) providers are no longer discoverable."""
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, noc=2, depth=2)
        reg = ResourceRegistry()
        reg.register("water", 2)
        _, engine = build_engine(topo, params, reg)
        assert engine.query(0, "water").success
        reg.deregister("water", 2)
        assert not engine.query(0, "water").success
