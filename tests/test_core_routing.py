"""Unit tests for route metrics and the Fig. 3.13 selection rules."""

import pytest

from repro.core.config import RoutingPolicy
from repro.core.device import MobilityClass
from repro.core.routing import (
    RouteMetrics,
    direct_route,
    is_better_route,
)

S, H, D = MobilityClass.STATIC, MobilityClass.HYBRID, MobilityClass.DYNAMIC


def route(jump, mobility, quality_sum, min_quality=None):
    return RouteMetrics(jump=jump, first_hop_mobility=mobility,
                        quality_sum=quality_sum,
                        min_link_quality=(min_quality if min_quality
                                          is not None else quality_sum))


def test_direct_route_has_zero_jumps():
    metrics = direct_route(quality=240, mobility=S)
    assert metrics.jump == 0
    assert metrics.quality_sum == 240
    assert metrics.min_link_quality == 240
    assert metrics.first_hop_mobility is S


def test_route_metrics_validation():
    with pytest.raises(ValueError):
        route(-1, S, 100)
    with pytest.raises(ValueError):
        RouteMetrics(jump=0, first_hop_mobility=S, quality_sum=-5,
                     min_link_quality=0)


def test_fewer_jumps_always_wins_default_policy():
    policy = RoutingPolicy()
    shorter = route(1, D, 300, min_quality=150)
    longer = route(2, S, 900, min_quality=255)
    assert is_better_route(shorter, longer, policy)
    assert not is_better_route(longer, shorter, policy)


def test_equal_jumps_lower_mobility_wins():
    """§3.4.3: static bridges preferred at equal hop count."""
    policy = RoutingPolicy()
    via_static = route(1, S, 400, min_quality=200)
    via_dynamic = route(1, D, 500, min_quality=255)
    assert is_better_route(via_static, via_dynamic, policy)


def test_equal_jumps_equal_mobility_higher_quality_wins():
    policy = RoutingPolicy()
    strong = route(1, S, 480, min_quality=240)
    weak = route(1, S, 460, min_quality=230)
    assert is_better_route(strong, weak, policy)


def test_fig_3_9_equity_threshold_breaks_tie():
    """Equal sums (230+230 vs 210+250): the sub-threshold route loses."""
    policy = RoutingPolicy()  # threshold 230
    route_abd = route(1, S, 460, min_quality=230)
    route_acd = route(1, S, 460, min_quality=210)
    assert is_better_route(route_abd, route_acd, policy)
    assert not is_better_route(route_acd, route_abd, policy)


def test_fig_3_9_without_threshold_equity_is_a_true_tie():
    """Ablation: with the rule off, equal sums keep the incumbent."""
    policy = RoutingPolicy(use_quality_threshold=False)
    route_abd = route(1, S, 460, min_quality=230)
    route_acd = route(1, S, 460, min_quality=210)
    assert not is_better_route(route_abd, route_acd, policy)
    assert not is_better_route(route_acd, route_abd, policy)


def test_threshold_satisfying_route_beats_higher_sum_below_threshold():
    policy = RoutingPolicy()
    clean = route(1, S, 470, min_quality=235)
    tainted = route(1, S, 500, min_quality=200)
    assert is_better_route(clean, tainted, policy)


def test_mobility_ignored_when_disabled():
    policy = RoutingPolicy(use_mobility=False)
    via_dynamic_strong = route(1, D, 500, min_quality=250)
    via_static_weak = route(1, S, 400, min_quality=250)
    assert is_better_route(via_dynamic_strong, via_static_weak, policy)


def test_quality_first_ablation_reorders():
    policy = RoutingPolicy(quality_first=True)
    long_strong = route(3, S, 900, min_quality=255)
    short_weak = route(1, S, 250, min_quality=250)
    assert is_better_route(long_strong, short_weak, policy)
    # Default policy prefers the short route.
    assert is_better_route(short_weak, long_strong, RoutingPolicy())


def test_equal_routes_do_not_replace():
    policy = RoutingPolicy()
    first = route(1, S, 400, min_quality=240)
    twin = route(1, S, 400, min_quality=240)
    assert not is_better_route(first, twin, policy)
    assert not is_better_route(twin, first, policy)


def test_policy_validation():
    with pytest.raises(ValueError):
        RoutingPolicy(quality_threshold=300)
    with pytest.raises(ValueError):
        RoutingPolicy(max_jump=-1)
