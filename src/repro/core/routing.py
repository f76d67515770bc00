"""Route metrics and the Fig. 3.13 route-selection rules.

For every remote device the DeviceStorage keeps exactly one route — "it is
impossible and unnecessary to store all of the possibilities ... The
optimal way is required" (§3.3).  When a neighbourhood snapshot offers an
alternative route to an already-stored device, the candidate replaces the
stored route iff it is *better* under the paper's ordering:

1. fewer jumps (the primary "cost of the connection", §3.3);
2. same jumps, lower first-hop mobility (§3.4.3: "only the nearest
   device's mobility numbers are considered");
3. same again, better quality — where a route whose every link meets the
   230 per-link threshold beats one that does not (Fig. 3.9), and raw
   quality sums break remaining ties (Fig. 3.8).
"""

from __future__ import annotations

import dataclasses

from repro.core.config import RoutingPolicy
from repro.core.device import MobilityClass


@dataclasses.dataclass(frozen=True)
class RouteMetrics:
    """The comparable facts about one route to one device.

    Attributes
    ----------
    jump:
        Hop count; direct neighbours have jump 0 (§3.3).
    first_hop_mobility:
        Mobility class of the nearest device on the route — the bridge for
        indirect routes, the target itself for direct ones.
    quality_sum:
        Sum of per-link qualities along the route (Fig. 3.8: "AB + BD").
    min_link_quality:
        Worst per-link quality on the route, used by the Fig. 3.9 rule.
    """

    jump: int
    first_hop_mobility: MobilityClass
    quality_sum: int
    min_link_quality: int

    def __post_init__(self) -> None:
        check_route_figures(self.jump, self.quality_sum,
                            self.min_link_quality)

    def meets_threshold(self, threshold: int) -> bool:
        """Fig. 3.9: every link on the route is at least ``threshold``."""
        return self.min_link_quality >= threshold

    def extend(self, link_quality: int,
               bridge_mobility: MobilityClass) -> "RouteMetrics":
        """Derive the metrics seen one hop upstream.

        A receiver that learns this route from a neighbour at
        ``link_quality`` stores it with one more jump, the neighbour as
        first hop, and the local link folded into the quality figures.
        """
        return upstream_route(self.jump, self.quality_sum,
                              self.min_link_quality, link_quality,
                              bridge_mobility)


def check_route_figures(jump: int, quality_sum: int,
                        min_link_quality: int) -> None:
    """Raise ``ValueError`` for figures no route can have."""
    if jump < 0:
        raise ValueError(f"negative jump count: {jump}")
    if quality_sum < 0 or min_link_quality < 0:
        raise ValueError("negative quality")


def upstream_route(jump: int, quality_sum: int, min_link_quality: int,
                   link_quality: int,
                   bridge_mobility: MobilityClass) -> RouteMetrics:
    """An advertised route's metrics as stored one hop upstream.

    The body of :meth:`RouteMetrics.extend`, taking the advertised
    figures directly so a neighbourhood fold builds one
    :class:`RouteMetrics` per candidate, not two.
    """
    return RouteMetrics(
        jump=jump + 1,
        first_hop_mobility=bridge_mobility,
        quality_sum=quality_sum + link_quality,
        min_link_quality=min(min_link_quality, link_quality),
    )


def direct_route(quality: int, mobility: MobilityClass) -> RouteMetrics:
    """Metrics of a direct (0-jump) neighbour observed at ``quality``."""
    return RouteMetrics(jump=0, first_hop_mobility=mobility,
                        quality_sum=quality, min_link_quality=quality)


def is_better_route(candidate: RouteMetrics, incumbent: RouteMetrics,
                    policy: RoutingPolicy) -> bool:
    """True if ``candidate`` should replace ``incumbent`` (Fig. 3.13).

    Strictly better is required — equal routes keep the incumbent, which
    both avoids churn and matches the activity diagram (replacement only on
    the explicit "<"/">" branches).
    """
    return route_rank(candidate, policy) < route_rank(incumbent, policy)


def route_rank(metrics: RouteMetrics, policy: RoutingPolicy) -> tuple:
    """The Fig. 3.13 ordering as a public sort key (smaller is better).

    Exposed so other planes can rank many candidates in one ``sorted``
    pass instead of pairwise :func:`is_better_route` calls — the DTN
    forwarder (:mod:`repro.dtn.routing`) orders its per-contact
    transmission queue with the same lexicographic-policy pattern.
    O(1); the tuple is safe to cache per metrics/policy pair.
    """
    jump_key = metrics.jump
    mobility_key = int(metrics.first_hop_mobility) if policy.use_mobility else 0
    if policy.use_quality_threshold:
        threshold_key = 0 if metrics.meets_threshold(
            policy.quality_threshold) else 1
    else:
        threshold_key = 0
    quality_key = -metrics.quality_sum
    if policy.quality_first:
        return (threshold_key, quality_key, jump_key, mobility_key)
    return (jump_key, mobility_key, threshold_key, quality_key)


def best_route(routes: list[RouteMetrics],
               policy: RoutingPolicy) -> RouteMetrics | None:
    """Pick the best of several candidate routes (first wins ties)."""
    if not routes:
        return None
    winner = routes[0]
    for candidate in routes[1:]:
        if is_better_route(candidate, winner, policy):
            winner = candidate
    return winner
