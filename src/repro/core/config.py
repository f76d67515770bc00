"""Configuration objects for the daemon, routing policy and handover.

Defaults reproduce the paper's constants: quality threshold 230
(Figs. 3.9/5.8), three consecutive low readings before handover (§5.2.1)
and the route preference order jump → mobility → quality (Fig. 3.13).
The ablation tests (``tests/paper/test_ablations.py``) flip individual
fields here.

Values the thesis fixes and no experiment varies are module constants
below, not fields.  Three of the thesis' design decisions are not
settings at all but the only behaviour the code has:

* §3.4.1's unified discovery fetch — "we could unify these 4 short
  connections to an only one longer connection": one fetch per stored
  device (``plugins/base.py``);
* §3.4.3's static-bridge preference — "we will always give preference
  to static terminals as a bridge": static handover bridges win ties
  whenever ``RoutingPolicy.use_mobility`` is on;
* §5.3's ``sending`` flag — when the application has finished sending
  the HandoverThread "will be aware about the no need for the
  reconnection and avoid the routing handover or service
  reconnection".
"""

from __future__ import annotations

import dataclasses

from repro.radio.quality import PAPER_LOW_QUALITY_THRESHOLD

#: §3.5: stored devices are re-fetched only every this many inquiry
#: loops "to achieve the energy saving"; the loops between refresh the
#: link quality only.
SERVICE_CHECK_INTERVAL_LOOPS = 3

#: §5.2.1: the HandoverThread's link-quality sampling period, seconds
#: (the paper decays 1 unit per second and counts per reading, implying
#: a 1 s cadence).
MONITOR_INTERVAL_S = 1.0

#: How often the polling HandoverThread's state 0 re-derives the best
#: alternative route, seconds.
ROUTE_REFRESH_INTERVAL_S = 5.0


@dataclasses.dataclass(frozen=True)
class RoutingPolicy:
    """Route-selection knobs used by ``AnalyzeNeighbourhoodDevices``.

    Frozen: a ``DeviceStorage`` keeps each stored route's rank under its
    policy, so the policy must not change under it.

    Attributes
    ----------
    quality_threshold:
        Minimum acceptable per-link quality (Fig. 3.9's 230).
    use_quality_threshold:
        Apply the per-link rule when breaking quality ties.  Off, the
        comparison uses raw sums only (the ablation of Fig. 3.9).
    use_mobility:
        Prefer routes whose first hop is less mobile (§3.4.3's
        static-backbone argument).  Off, mobility is ignored.
    quality_first:
        Ablation: rank routes by quality before jump count, instead of the
        paper's jump-first order.
    max_jump:
        Discard routes longer than this many jumps (§3.4.2 recommends a
        limit for mobile devices because notification delay grows with
        hops).
    """

    quality_threshold: int = PAPER_LOW_QUALITY_THRESHOLD
    use_quality_threshold: bool = True
    use_mobility: bool = True
    quality_first: bool = False
    max_jump: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.quality_threshold <= 255:
            raise ValueError(
                f"quality threshold out of range: {self.quality_threshold}")
        if self.max_jump < 0:
            raise ValueError(f"negative max jump: {self.max_jump}")


@dataclasses.dataclass
class HandoverConfig:
    """Knobs of the HandoverThread (§5.2.1, Fig. 5.5).

    The sampling cadence is :data:`MONITOR_INTERVAL_S`; the route
    refresh period is :data:`ROUTE_REFRESH_INTERVAL_S`.

    Attributes
    ----------
    low_quality_threshold:
        "Once this value is smaller than threshold 230, the signallow
        account increased."
    low_count_limit:
        "And when this account is bigger than three, the HandoverThread
        will proceed to change the connection to the second route."
    max_handover_attempts:
        After this many failed routing handovers the thread falls back to
        service reconnection (§5.2.2: "after various attempts").
    connect_retries:
        Establishment retries for the replacement connection (§4.3
        recommends attempt repetition).
    event_driven:
        True (default): state-1 monitoring subscribes to predicted
        quality-threshold crossings on the connectivity bus and sleeps
        until low readings are possible — same decisions as polling,
        a small fraction of the wakeups.  False: the paper-faithful
        fixed-interval polling loop, kept as the oracle baseline the
        equivalence tests and ``bench_event_handover`` compare against.
    """

    low_quality_threshold: int = PAPER_LOW_QUALITY_THRESHOLD
    low_count_limit: int = 3
    max_handover_attempts: int = 2
    connect_retries: int = 1
    event_driven: bool = True

    def __post_init__(self) -> None:
        if self.low_count_limit < 1:
            raise ValueError("low count limit must be >= 1")
        if not 0 <= self.low_quality_threshold <= 255:
            raise ValueError(
                f"low quality threshold out of range: "
                f"{self.low_quality_threshold}")


@dataclasses.dataclass
class DaemonConfig:
    """Per-daemon settings (the thesis' system configuration parameters).

    The service-check interval is :data:`SERVICE_CHECK_INTERVAL_LOOPS`.

    Attributes
    ----------
    stale_after_loops:
        §3.5: "If one device doesn't respond to the inquiry during certain
        loop ... the device information should be removed" — we allow a
        small number of missed loops before eviction because Bluetooth's
        asymmetric discovery produces random misses (§3.4.2).
    bridge_enabled:
        Run the hidden bridge service (§4.0 discusses switching it off on
        battery-constrained mobiles).
    bridge_max_connections:
        Maximum simultaneous relayed pairs (§4.0's owner-adjusted cap);
        0 means unlimited.
    connect_retries:
        Library-level establishment retries for outgoing connections.
    """

    stale_after_loops: int = 3
    bridge_enabled: bool = True
    bridge_max_connections: int = 8
    connect_retries: int = 1
    routing: RoutingPolicy = dataclasses.field(default_factory=RoutingPolicy)
    handover: HandoverConfig = dataclasses.field(
        default_factory=HandoverConfig)

    def __post_init__(self) -> None:
        if self.stale_after_loops < 1:
            raise ValueError("stale-after must be >= 1 loop")
        if self.bridge_max_connections < 0:
            raise ValueError("bridge max connections must be >= 0")
