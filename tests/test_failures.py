"""Tests for topology liveness and CARD under node crashes."""

import numpy as np

from repro.net import graph as g
import pytest

from repro.campaign.runner import execute_cell
from repro.campaign.spec import CellSpec, TopologySpec
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.net.network import Network
from tests.conftest import grid_topology, line_topology, random_topology


class TestTopologyLiveness:
    def test_failed_node_loses_links(self, line10):
        line10.fail_nodes([5])
        assert len(line10.adj[5]) == 0
        assert 5 not in line10.adj[4]
        assert 5 not in line10.adj[6]

    def test_failure_bumps_epoch_once(self, line10):
        e0 = line10.epoch
        line10.fail_nodes([3])
        line10.fail_nodes([3])  # no-op repeat
        assert line10.epoch == e0 + 1

    def test_fail_nodes_bulk(self, grid5):
        e0 = grid5.epoch
        grid5.fail_nodes([0, 1, 2])
        assert grid5.epoch == e0 + 1
        assert not grid5.is_active(0)
        assert (~grid5.active).sum() == 3

    def test_fail_nodes_on_dead_nodes_is_a_no_op(self, grid5):
        grid5.fail_nodes([3, 4])
        e1 = grid5.epoch
        grid5.fail_nodes([3, 4])
        assert grid5.epoch == e1
        assert (~grid5.active).sum() == 2

    def test_fail_nodes_takes_numpy_ids(self, grid5):
        # the crash-wave cell passes the array its generator drew
        grid5.fail_nodes(np.array([7, 12], dtype=np.int64))
        assert not grid5.is_active(7) and not grid5.is_active(12)
        assert 7 not in grid5.adj[12] and len(grid5.adj[7]) == 0

    def test_active_mask_readonly(self, line10):
        with pytest.raises(ValueError):
            line10.active[0] = False

    def test_failed_node_splits_network(self, line10):
        line10.fail_nodes([5])
        dist = g.hop_distance_matrix(line10.adj)
        assert dist[0, 9] == -1

    def test_positions_survive_failure(self, line10):
        before = np.array(line10.positions)
        line10.fail_nodes([5])
        assert (line10.positions == before).all()


class TestCARDUnderFailures:
    def test_validation_detects_failed_relay(self):
        """A contact whose route crosses a dead node is repaired or lost."""
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=2)
        net = Network(topo)
        card = CARDProtocol(net, CARDParams(R=2, r=7, noc=3), seed=2)
        card.bootstrap(sources=range(40))
        # kill every 10th node
        topo.fail_nodes(range(0, 150, 10))
        alive_sources = [s for s in range(40) if topo.is_active(s)]
        for s in alive_sources:
            outcomes = card.maintainer.validate_all(card.table_for(s))
            for out in outcomes:
                if out.ok:
                    # surviving routes never traverse dead nodes
                    assert all(topo.is_active(v) for v in out.new_path)

    def test_queries_avoid_dead_targets(self):
        topo = random_topology(n=120, area=(350.0, 350.0), tx=65.0, seed=3)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=7, noc=3, depth=2), seed=3)
        card.bootstrap()
        topo.fail_nodes([60])
        res = card.query(0, 60, max_depth=2)
        assert not res.success  # dead nodes are not in anyone's zone


def _crash_cell(**workload):
    return CellSpec(
        topology=TopologySpec(num_nodes=150, salt="crash"),
        params={"R": 2, "r": 7, "noc": 4, "depth": 3},
        seed=3,
        metrics=("failures",),
        workload={"num_queries": 15, **workload},
    )


class TestCrashWaveCell:
    """The ``failures`` cell family: bootstrap, crash a wave, repair once."""

    def test_fails_the_requested_fraction(self):
        m = execute_cell(_crash_cell(fail_fraction=0.2))
        assert m["num_nodes"] == 150
        assert m["num_failed"] == 30

    def test_a_zero_fraction_still_fails_one_node(self):
        assert execute_cell(_crash_cell(fail_fraction=0.0))["num_failed"] == 1

    def test_crash_alone_leaves_contact_tables(self):
        # dead relays are only noticed by the next validation round
        m = execute_cell(_crash_cell())
        assert m["contacts_crash"] == m["contacts_before"] > 0

    def test_repair_round_drops_at_most_the_lost_contacts(self):
        # survivors validate every contact; a lost one is dropped and may
        # be re-selected, so the repaired tables hold at least the rest
        m = execute_cell(_crash_cell(fail_fraction=0.3))
        assert m["repair_msgs"] > 0
        assert m["contacts_lost"] > 0
        assert m["contacts_repaired"] >= m["contacts_crash"] - m["contacts_lost"]

    def test_cell_is_reproducible(self):
        assert execute_cell(_crash_cell()) == execute_cell(_crash_cell())
