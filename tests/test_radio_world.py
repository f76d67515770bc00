"""Unit tests for technologies, propagation, quality and the world."""

import pytest

from repro.mobility import LinearMovement, StaticPosition
from repro.radio import (
    BLUETOOTH,
    GPRS,
    PAPER_LOW_QUALITY_THRESHOLD,
    QUALITY_MAX,
    WLAN,
    LogDistancePathLoss,
    PiecewiseLinearQuality,
    World,
)
from repro.radio.technologies import Technology, get_technology
from repro.sim import Simulator


# ----------------------------------------------------------------------
# technologies
# ----------------------------------------------------------------------
def test_builtin_technology_registry():
    assert get_technology("bluetooth") is BLUETOOTH
    assert get_technology("wlan") is WLAN
    assert get_technology("gprs") is GPRS
    assert get_technology(WLAN) is WLAN     # an object passes through


def test_unknown_technology_raises_with_known_list():
    with pytest.raises(KeyError, match="bluetooth"):
        get_technology("zigbee")


def test_technology_search_cycle_is_scan_plus_idle():
    assert BLUETOOTH.search_cycle_s == pytest.approx(
        BLUETOOTH.inquiry_duration_s + BLUETOOTH.inquiry_interval_s)


def test_technology_transmit_time_scales_with_size():
    small = BLUETOOTH.transmit_time(100)
    large = BLUETOOTH.transmit_time(10_000)
    assert large > small > BLUETOOTH.base_latency_s


def test_technology_transmit_time_rejects_negative():
    with pytest.raises(ValueError):
        BLUETOOTH.transmit_time(-1)


def test_technology_validation():
    with pytest.raises(ValueError):
        Technology("bad", -1, 0, 1, 0.1, 1e6, 0.01, 1, 1, True, 0.1)
    with pytest.raises(ValueError):
        Technology("bad", 10, 5, 1, 0.1, 1e6, 0.01, 1, 1, True, 0.1)
    with pytest.raises(ValueError):
        Technology("bad", 10, 0, 1, 1.5, 1e6, 0.01, 1, 1, True, 0.1)


def test_bluetooth_is_asymmetric_others_are_not():
    assert not BLUETOOTH.discoverable_while_inquiring
    assert WLAN.discoverable_while_inquiring
    assert GPRS.discoverable_while_inquiring


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
def test_path_loss_monotonically_decreasing():
    model = LogDistancePathLoss()
    rssi = [model.rssi_dbm(d) for d in (1.0, 5.0, 10.0, 20.0)]
    assert rssi == sorted(rssi, reverse=True)


def test_path_loss_clamps_below_reference_distance():
    model = LogDistancePathLoss()
    assert model.rssi_dbm(0.0) == model.rssi_dbm(1.0)


def test_path_loss_rejects_negative_distance():
    with pytest.raises(ValueError):
        LogDistancePathLoss().rssi_dbm(-2.0)


# ----------------------------------------------------------------------
# quality models
# ----------------------------------------------------------------------
def test_piecewise_quality_plateau_is_max():
    model = PiecewiseLinearQuality(plateau_fraction=0.5)
    assert model.quality(0.0, 10.0) == QUALITY_MAX
    assert model.quality(5.0, 10.0) == QUALITY_MAX


def test_piecewise_quality_ramps_to_edge():
    model = PiecewiseLinearQuality(plateau_fraction=0.5, edge_quality=180)
    assert model.quality(10.0, 10.0) == 180
    mid = model.quality(7.5, 10.0)
    assert 180 < mid < QUALITY_MAX


def test_piecewise_quality_zero_beyond_range():
    model = PiecewiseLinearQuality()
    assert model.quality(10.01, 10.0) == 0


def test_piecewise_threshold_crossing_is_inside_coverage():
    """The paper's 230 threshold must trip before the link dies (§3.4.1)."""
    model = PiecewiseLinearQuality()
    ring = model.threshold_distance(PAPER_LOW_QUALITY_THRESHOLD, 10.0)
    assert 5.0 < ring < 10.0
    assert model.quality(ring - 1e-6, 10.0) >= PAPER_LOW_QUALITY_THRESHOLD
    assert model.quality(ring + 1e-6, 10.0) < PAPER_LOW_QUALITY_THRESHOLD


def test_piecewise_quality_monotone_nonincreasing():
    model = PiecewiseLinearQuality()
    values = [model.quality(d / 10.0, 10.0) for d in range(0, 105)]
    assert values == sorted(values, reverse=True)


def test_quality_model_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearQuality(plateau_fraction=1.5)
    with pytest.raises(ValueError):
        PiecewiseLinearQuality(edge_quality=300)


# ----------------------------------------------------------------------
# world
# ----------------------------------------------------------------------
def make_world():
    sim = Simulator(seed=1)
    world = World(sim)
    return sim, world


def test_world_add_and_query_nodes():
    _, world = make_world()
    world.add_node("pc", StaticPosition(0, 0), [BLUETOOTH, WLAN])
    world.add_node("phone", StaticPosition(5, 0), ["bluetooth"])
    assert world.node_ids() == ["pc", "phone"]
    assert world.supports("pc", WLAN)
    assert not world.supports("phone", WLAN)


def test_world_duplicate_node_rejected():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    with pytest.raises(ValueError):
        world.add_node("a", StaticPosition(1, 1), [BLUETOOTH])


def test_world_node_needs_technology():
    _, world = make_world()
    with pytest.raises(ValueError):
        world.add_node("bare", StaticPosition(0, 0), [])


def test_world_unknown_node_raises():
    _, world = make_world()
    with pytest.raises(KeyError):
        world.position("ghost")


def test_world_distance_and_range():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(8, 0), [BLUETOOTH])
    world.add_node("c", StaticPosition(30, 0), [BLUETOOTH])
    assert world.distance("a", "b") == 8.0
    assert world.in_range("a", "b", BLUETOOTH)
    assert not world.in_range("a", "c", BLUETOOTH)
    assert not world.in_range("a", "a", BLUETOOTH)


def test_world_range_requires_technology_on_both_sides():
    _, world = make_world()
    world.add_node("bt-only", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("wlan-only", StaticPosition(1, 0), [WLAN])
    assert not world.in_range("bt-only", "wlan-only", BLUETOOTH)
    assert not world.in_range("bt-only", "wlan-only", WLAN)


def test_world_positions_follow_mobility_and_clock():
    sim, world = make_world()
    world.add_node("walker", LinearMovement((0, 0), (1.0, 0.0)), [BLUETOOTH])
    assert world.position("walker") == (0.0, 0.0)
    sim.timeout(6.0)
    sim.run()
    assert world.position("walker") == (6.0, 0.0)


def test_world_mobile_node_leaves_range_over_time():
    sim, world = make_world()
    world.add_node("base", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("walker", LinearMovement((0, 0), (1.0, 0.0)), [BLUETOOTH])
    assert world.in_range("base", "walker", BLUETOOTH)
    sim.timeout(11.0)
    sim.run()
    assert not world.in_range("base", "walker", BLUETOOTH)


def test_world_link_quality_declines_with_distance():
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("near", StaticPosition(2, 0), [BLUETOOTH])
    world.add_node("far", StaticPosition(9, 0), [BLUETOOTH])
    world.add_node("gone", StaticPosition(50, 0), [BLUETOOTH])
    assert world.link_quality("a", "near", BLUETOOTH) == QUALITY_MAX
    assert 0 < world.link_quality("a", "far", BLUETOOTH) < QUALITY_MAX
    assert world.link_quality("a", "gone", BLUETOOTH) == 0


def test_world_quality_override_and_clear():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    world.set_quality_override("a", "b", BLUETOOTH, lambda t: 42)
    assert world.link_quality("a", "b", BLUETOOTH) == 42
    assert world.link_quality("b", "a", BLUETOOTH) == 42  # symmetric key
    world.set_quality_override("a", "b", BLUETOOTH, None)
    assert world.link_quality("a", "b", BLUETOOTH) == QUALITY_MAX


def test_world_linear_decay_matches_paper_rate():
    """Fig. 5.8: quality decays by 1 per second from the initial value."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH])
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=255)
    assert world.link_quality("a", "b", BLUETOOTH) == 255
    sim.timeout(25.0)
    sim.run()
    assert world.link_quality("a", "b", BLUETOOTH) == 230
    sim.timeout(300.0)
    sim.run()
    assert world.link_quality("a", "b", BLUETOOTH) == 0  # floored


def test_world_inquiry_marking_controls_discoverability():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH, WLAN])
    world.add_node("b", StaticPosition(1, 0), [BLUETOOTH, WLAN])
    assert world.heard_during_scan("b", BLUETOOTH, 0.0, 10.0)
    world.mark_inquiring("b", BLUETOOTH, True)
    world.mark_inquiring("b", WLAN, True)
    # A scan over b's own inquiry cannot hear it on Bluetooth (§3.4.2's
    # asymmetric discovery); WLAN answers while inquiring.
    assert not world.heard_during_scan("b", BLUETOOTH, 0.0, 10.0)
    assert world.heard_during_scan("b", WLAN, 0.0, 10.0)
    sim.run(until=10.0)
    world.mark_inquiring("b", BLUETOOTH, False)
    assert world.heard_during_scan("b", BLUETOOTH, 10.0, 20.0)


def test_world_discoverable_neighbors_excludes_inquirers():
    """The plugin's scan: neighbors() filtered by heard_during_scan."""
    _, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(3, 0), [BLUETOOTH])
    world.add_node("c", StaticPosition(6, 0), [BLUETOOTH])

    def heard():
        return [other for other in world.neighbors("a", BLUETOOTH)
                if world.heard_during_scan(other, BLUETOOTH, 0.0, 10.0)]

    assert heard() == ["b", "c"]
    world.mark_inquiring("c", BLUETOOTH, True)
    assert heard() == ["b"]
    assert world.neighbors("a", BLUETOOTH) == ["b", "c"]


# ----------------------------------------------------------------------
# inquiry-mark pruning (explicit on clock advance)
# ----------------------------------------------------------------------
def test_toggle_log_pruned_explicitly_on_clock_advance():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(5, 0), [BLUETOOTH])
    # Sparse toggles: the seed's length-triggered lazy prune (watermark
    # 16) would never fire, carrying entries forever.
    for index in range(6):
        sim.run(until=index * 50.0)
        world.mark_inquiring("b", BLUETOOTH, True)
        sim.run(until=index * 50.0 + 10.0)
        world.mark_inquiring("b", BLUETOOTH, False)
    history = world._inquiry_history[("b", BLUETOOTH.name)]
    # The prune runs once per horizon of clock advance, so nothing older
    # than two horizons survives (bar the single state anchor).
    cutoff = sim.now - 2 * World._HISTORY_HORIZON_S
    assert sum(1 for when, _ in history if when <= cutoff) <= 1
    # An explicit prune tightens to one horizon exactly.
    world.prune_inquiry_history()
    tight = sim.now - World._HISTORY_HORIZON_S
    assert sum(1 for when, _ in history if when <= tight) <= 1
    # Pruning preserved the current answer.
    assert world.heard_during_scan("b", BLUETOOTH, sim.now - 20.0, sim.now)


def test_prune_keeps_state_anchor_for_window_queries():
    sim, world = make_world()
    world.add_node("b", StaticPosition(5, 0), [BLUETOOTH])
    world.mark_inquiring("b", BLUETOOTH, True)   # at t=0, never cleared
    sim.run(until=500.0)
    assert world.prune_inquiry_history() == 0    # anchor must survive
    # 500 s later the node is still known to be mid-inquiry.
    assert world.max_discoverable_gap(
        "b", BLUETOOTH, 490.0, 500.0) == 0.0


def test_grid_refresh_triggers_history_prune():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (0.01, 0.0)), [BLUETOOTH])
    world.mark_inquiring("b", BLUETOOTH, True)
    world.mark_inquiring("b", BLUETOOTH, False)
    world.neighbors("a", BLUETOOTH)   # builds the grid
    sim.run(until=400.0)
    world.neighbors("a", BLUETOOTH)   # clock advanced: refresh + prune
    history = world._inquiry_history[("b", BLUETOOTH.name)]
    assert len(history) == 1          # both toggles aged out; anchor kept
