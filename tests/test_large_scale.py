"""Smoke tests for the large-N scenario family (dense plaza, sparse
highway)."""

import pytest

from repro.radio import BLUETOOTH, WLAN
from repro.scenarios import dense_plaza, sparse_highway


def assert_grid_matches_brute_force(world, tech):
    for node_id in world.node_ids():
        assert (world.neighbors(node_id, tech)
                == world.neighbors_brute_force(node_id, tech)), node_id


# ----------------------------------------------------------------------
# dense plaza
# ----------------------------------------------------------------------
def test_dense_plaza_discovery_converges_locally():
    scenario = dense_plaza(24, area=40.0, seed=5)
    scenario.start_all()
    scenario.run(until=90.0)
    # In a 40 m square with 10 m radios every pedestrian has neighbors
    # and discovery has had several inquiry cycles: most nodes know
    # someone, and the world's grid agrees with the pairwise oracle.
    aware = sum(1 for name in scenario.nodes
                if scenario.awareness(name))
    assert aware >= len(scenario.nodes) // 2
    assert_grid_matches_brute_force(scenario.world, BLUETOOTH)


def test_dense_plaza_validation():
    with pytest.raises(ValueError):
        dense_plaza(0)
    with pytest.raises(ValueError):
        dense_plaza(5, area=-1.0)


# ----------------------------------------------------------------------
# sparse highway
# ----------------------------------------------------------------------
def test_sparse_highway_vehicles_move_and_match_oracle():
    scenario = sparse_highway(16, length_m=1200.0, seed=9)
    world = scenario.world
    before = {node_id: world.position(node_id)
              for node_id in world.node_ids()}
    scenario.sim.timeout(10.0)
    scenario.sim.run()
    after = {node_id: world.position(node_id)
             for node_id in world.node_ids()}
    moved = [node_id for node_id in before if before[node_id]
             != after[node_id]]
    assert len(moved) == 16  # every vehicle is in motion
    # Motorway speeds: >= 200 m covered in 10 s is impossible, >= 150 m
    # for the fastest draw (33 m/s) plausible; just check the scale.
    for node_id in moved:
        dx = abs(after[node_id][0] - before[node_id][0])
        assert 100.0 <= dx <= 400.0
    assert_grid_matches_brute_force(world, WLAN)


def test_sparse_highway_validation():
    with pytest.raises(ValueError):
        sparse_highway(0)
    with pytest.raises(ValueError):
        sparse_highway(4, length_m=0.0)
