"""E3 — Fig. 3.9: the link-quality equity rule.

Paper artifact: routes A-B-D and A-C-D both sum to 460, but A-C (210) is
below the 230 per-link minimum, so "the route A-C-D won't be accepted".
"""

from repro.core.config import RoutingPolicy
from repro.core.device import MobilityClass
from repro.core.routing import RouteMetrics, is_better_route
from repro.metrics.tables import print_table
from repro.scenarios import fig_3_9_quality_equity


def run_stack_level(seed=10, settle_s=240.0):
    """Full-stack: which bridge does A store for D?"""
    scenario = fig_3_9_quality_equity(seed=seed)
    scenario.start_all()
    scenario.run(until=settle_s)
    node_a = scenario.node("A")
    entry = node_a.daemon.storage.get(scenario.node("D").address)
    if entry is None or entry.bridge is None:
        return None
    bridge_peer = scenario.fabric.node_by_address(entry.bridge)
    return {
        "bridge": bridge_peer.node_id,
        "quality_sum": entry.route.quality_sum,
        "min_link": entry.route.min_link_quality,
    }


def test_e3_fig_3_9_stack_chooses_abd():
    result = run_stack_level()
    assert result is not None, "A never learnt a route to D"
    rows = [
        ["A-B-D", "230+230=460", "accepted (all links >= 230)",
         "chosen" if result["bridge"] == "B" else ""],
        ["A-C-D", "210+250=460", "rejected (A-C < 230)",
         "chosen" if result["bridge"] == "C" else ""],
    ]
    print_table("E3: Fig. 3.9 equity (equal sums, threshold tie-break)",
                ["route", "paper sum", "paper verdict", "measured"], rows)
    assert result["bridge"] == "B", (
        f"paper picks A-B-D; stack picked via {result['bridge']}")
    assert result["min_link"] >= 230


def run_rule_level():
    policy = RoutingPolicy()
    abd = RouteMetrics(jump=1, first_hop_mobility=MobilityClass.STATIC,
                       quality_sum=460, min_link_quality=230)
    acd = RouteMetrics(jump=1, first_hop_mobility=MobilityClass.STATIC,
                       quality_sum=460, min_link_quality=210)
    return {
        "abd_beats_acd": is_better_route(abd, acd, policy),
        "acd_beats_abd": is_better_route(acd, abd, policy),
        "tie_without_threshold": not is_better_route(
            abd, acd, RoutingPolicy(use_quality_threshold=False)),
    }


def test_e3_fig_3_9_rule_level():
    verdict = run_rule_level()
    assert verdict["abd_beats_acd"]
    assert not verdict["acd_beats_abd"]
    assert verdict["tie_without_threshold"]  # ablation: rule off => tie
