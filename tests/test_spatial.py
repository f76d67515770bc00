"""Unit tests for the spatial grid and its World integration."""

import pytest

from repro.mobility import LinearMovement, StaticPosition
from repro.mobility.base import distance
from repro.radio import BLUETOOTH, QUALITY_MAX, WLAN, SpatialGrid, World
from repro.sim import Simulator


# ----------------------------------------------------------------------
# SpatialGrid: pure data-structure behaviour
# ----------------------------------------------------------------------
def test_grid_cell_of_floor_semantics():
    grid = SpatialGrid(cell_size=10.0)
    assert grid.cell_of((0.0, 0.0)) == (0, 0)
    assert grid.cell_of((9.99, 9.99)) == (0, 0)
    assert grid.cell_of((10.0, 0.0)) == (1, 0)
    assert grid.cell_of((-0.01, -10.0)) == (-1, -1)
    assert grid.cell_of((-10.0, -10.01)) == (-1, -2)


def test_grid_rejects_bad_construction_and_queries():
    with pytest.raises(ValueError):
        SpatialGrid(cell_size=0.0)
    grid = SpatialGrid(cell_size=5.0)
    with pytest.raises(ValueError):
        grid.candidates((0.0, 0.0), -1.0)


def test_grid_membership_bookkeeping():
    grid = SpatialGrid(cell_size=10.0)
    grid.insert("a", (1.0, 1.0), mobile=False)
    grid.insert("b", (25.0, 1.0))
    assert len(grid) == 2
    assert "a" in grid and "b" in grid
    assert grid.point("b") == (25.0, 1.0)
    assert grid.mobile_ids() == ("b",)
    with pytest.raises(ValueError):
        grid.insert("a", (2.0, 2.0))
    grid.remove("a")
    assert "a" not in grid and len(grid) == 1
    with pytest.raises(KeyError):
        grid.remove("a")
    with pytest.raises(KeyError):
        grid.point("a")
    with pytest.raises(KeyError):
        grid.move("ghost", (0.0, 0.0))


def test_grid_move_rebuckets_only_on_cell_change():
    grid = SpatialGrid(cell_size=10.0)
    grid.insert("a", (1.0, 1.0))
    grid.move("a", (8.0, 8.0))  # same cell
    assert grid.rebuckets == 0
    grid.move("a", (11.0, 8.0))  # crossed into cell (1, 0)
    assert grid.rebuckets == 1
    assert grid.point("a") == (11.0, 8.0)
    assert "a" in grid.candidates((12.0, 8.0), 5.0)


def test_grid_candidates_never_miss_points_within_radius():
    grid = SpatialGrid(cell_size=10.0)
    points = {}
    index = 0
    for x in range(-25, 26, 5):
        for y in range(-25, 26, 5):
            name = f"n{index}"
            points[name] = (float(x), float(y))
            grid.insert(name, points[name])
            index += 1
    for center in ((0.0, 0.0), (-17.0, 12.0), (9.99, -10.0)):
        candidates = set(grid.candidates(center, 10.0))
        for name, point in points.items():
            if distance(center, point) <= 10.0:
                assert name in candidates, (name, point, center)


def test_grid_empty_cells_are_dropped():
    grid = SpatialGrid(cell_size=10.0)
    grid.insert("a", (1.0, 1.0))
    grid.move("a", (101.0, 101.0))
    grid.remove("a")
    assert grid._cells == {}


# ----------------------------------------------------------------------
# World integration
# ----------------------------------------------------------------------
def make_world():
    sim = Simulator(seed=3)
    return sim, World(sim)


def test_world_neighbors_match_brute_force_static():
    _, world = make_world()
    for index, position in enumerate(
            [(0, 0), (5, 0), (9, 3), (20, 0), (0, 9.9), (-8, 0), (50, 50)]):
        world.add_node(f"n{index}", StaticPosition(*position), [BLUETOOTH])
    for node_id in world.node_ids():
        assert (world.neighbors(node_id, BLUETOOTH)
                == world.neighbors_brute_force(node_id, BLUETOOTH))


def test_world_neighbors_track_motion():
    sim, world = make_world()
    world.add_node("base", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("walker", LinearMovement((0, 0), (1.0, 0.0)), [BLUETOOTH])
    assert world.neighbors("base", BLUETOOTH) == ["walker"]
    sim.timeout(11.0)
    sim.run()
    assert world.neighbors("base", BLUETOOTH) == []
    assert world.neighbors_brute_force("base", BLUETOOTH) == []


def test_world_neighbors_respect_technology_partitions():
    _, world = make_world()
    world.add_node("both", StaticPosition(0, 0), [BLUETOOTH, WLAN])
    world.add_node("bt", StaticPosition(5, 0), [BLUETOOTH])
    world.add_node("wl", StaticPosition(5, 5), [WLAN])
    assert world.neighbors("both", BLUETOOTH) == ["bt"]
    assert world.neighbors("both", WLAN) == ["wl"]
    assert world.neighbors("bt", WLAN) == []


def test_world_neighbors_unknown_node_is_empty():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    assert world.neighbors("ghost", BLUETOOTH) == []
    assert world.neighbors_brute_force("ghost", BLUETOOTH) == []


def test_world_node_added_after_grid_build_is_indexed():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    assert world.neighbors("a", BLUETOOTH) == []  # builds the grid
    world.add_node("b", StaticPosition(3, 0), [BLUETOOTH])
    assert world.neighbors("a", BLUETOOTH) == ["b"]
    assert world.neighbors("b", BLUETOOTH) == ["a"]


def test_world_grid_refreshes_only_when_clock_advances():
    sim, world = make_world()
    world.add_node("base", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("walker", LinearMovement((5, 0), (1.0, 0.0)),
                   [BLUETOOTH])
    world.neighbors("base", BLUETOOTH)
    world.neighbors("walker", BLUETOOTH)
    assert world.stats.grid_refreshes == 0  # same instant: no re-sync
    sim.timeout(1.0)
    sim.run()
    world.neighbors("base", BLUETOOTH)
    world.neighbors("base", BLUETOOTH)
    assert world.stats.grid_refreshes == 1  # one re-sync per new instant


# ----------------------------------------------------------------------
# remove_node eviction (regression: ISSUE 1 satellite fix)
# ----------------------------------------------------------------------
def test_remove_node_evicts_from_spatial_grid():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(3, 0), [BLUETOOTH])
    assert world.neighbors("a", BLUETOOTH) == ["b"]  # grid now built
    world.remove_node("b")
    assert world.neighbors("a", BLUETOOTH) == []
    assert world.neighbors_brute_force("a", BLUETOOTH) == []


def test_remove_node_evicts_quality_overrides_referencing_it():
    """A re-added device must not resurrect a stale quality override."""
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    world.set_quality_override("a", "b", BLUETOOTH, lambda t: 17)
    assert world.link_quality("a", "b", BLUETOOTH) == 17
    world.remove_node("b")
    assert world._overrides == {}
    # The device comes back (same id, fresh battery): physics applies,
    # not the override installed against its previous incarnation.
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    assert world.link_quality("a", "b", BLUETOOTH) == QUALITY_MAX


def test_remove_node_evicts_inquiry_state():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    world.mark_inquiring("b", BLUETOOTH, True)
    world.remove_node("b")
    assert not world.is_inquiring("b", BLUETOOTH)
    assert ("b", "bluetooth") not in world._inquiry_history
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    # The mark from before the removal would have muted this scan.
    assert world.heard_during_scan("b", BLUETOOTH, 0.0, 2.0)


def test_remove_node_keeps_overrides_of_other_pairs():
    _, world = make_world()
    for name in ("a", "b", "c"):
        world.add_node(name, StaticPosition(0, 0), [BLUETOOTH])
    world.set_quality_override("a", "b", BLUETOOTH, lambda t: 11)
    world.set_quality_override("a", "c", BLUETOOTH, lambda t: 22)
    world.remove_node("c")
    assert world.link_quality("a", "b", BLUETOOTH) == 11
