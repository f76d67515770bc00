"""DTN scenario family: worlds where store-carry-forward is load-bearing.

The large-N family (:mod:`repro.scenarios.large_scale`) stresses the
*discovery* layer; these two stress the *data plane*: in each, some
source–destination pairs are never simultaneously connected, so only a
custodian physically carrying the bundle across a partition can deliver
it.

* :func:`commuter_corridor` — two static terminals (``home``, ``work``)
  at opposite ends of a corridor much longer than radio range, plus
  commuters random-waypointing along it.  Terminal-to-terminal traffic
  *must* ride a commuter.
* :func:`island_hopping_ferry` — static population clusters ("islands")
  spaced far out of mutual range, plus one scripted ferry cycling
  between them.  Inter-island traffic is ferry-carried; intra-island
  traffic delivers at the first exchange.

All builders return an unstarted :class:`~repro.scenarios.builder.
Scenario` — the DTN plane runs on pure geometry, so scenario daemons
need not be started (mirroring the contact-trace workloads).  They
build geometry only and record their footprint in ``scenario.area``;
the optional fault and PHY planes are added by the experiment registry
(:func:`~repro.experiments.registry.build_scenario`).  Distances in
metres, times in sim-seconds.
"""

from __future__ import annotations

import math
import typing

from repro.mobility.linear import PathMovement
from repro.mobility.waypoint import RandomWaypoint
from repro.scenarios.builder import Scenario


def commuter_corridor(count: int = 10, length_m: float = 120.0,
                      width_m: float = 8.0,
                      speed_range: tuple[float, float] = (0.8, 2.0),
                      pause_range: tuple[float, float] = (0.0, 30.0),
                      seed: int = 0,
                      technologies: typing.Sequence[str] = ("bluetooth",),
                      ) -> Scenario:
    """``count`` commuters in a ``length_m`` × ``width_m`` corridor.

    ``home`` sits at the west end, ``work`` at the east end; with the
    default 120 m corridor and Bluetooth's 10 m radius the two are
    never in range of each other or of a commuter at the far end, so
    ``home`` → ``work`` bundles are deliverable only store-carry-forward.
    Commuters are named ``m0`` … ``m{count-1}``.  The registry's
    ``hostile_corridor`` is this world under a hostile fault preset.
    """
    if count < 1:
        raise ValueError(f"need at least one commuter, got {count}")
    if length_m <= 0 or width_m <= 0:
        raise ValueError("corridor needs positive dimensions")
    scenario = Scenario(seed=seed)
    scenario.area = (length_m, width_m)
    mid = width_m / 2.0
    scenario.add_node("home", position=(0.0, mid),
                      technologies=technologies, mobility_class="static")
    scenario.add_node("work", position=(length_m, mid),
                      technologies=technologies, mobility_class="static")
    for index in range(count):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"corridor/{index}"),
            area=(length_m, width_m), speed_range=speed_range,
            pause_range=pause_range)
        scenario.add_node(f"m{index}", mobility=mobility,
                          technologies=technologies,
                          mobility_class="dynamic")
    return scenario


#: Radius of the ring each island's islanders stand on, metres.
ISLAND_RADIUS_M = 5.0

#: The ferry's speed between islands, m/s.
FERRY_SPEED_MPS = 5.0


def island_hopping_ferry(count: int = 9, islands: int = 3,
                         island_spacing_m: float = 60.0,
                         dwell_s: float = 20.0, cycles: int = 4,
                         seed: int = 0,
                         technologies: typing.Sequence[str] = (
                             "bluetooth",),
                         ) -> Scenario:
    """``count`` islanders over ``islands`` clusters plus one ferry.

    Island ``i``'s centre is at ``(i * island_spacing_m, 0)`` —
    ``island_spacing_m`` should comfortably exceed the radio range so
    islands are mutually unreachable.  Islanders (``i{island}n{slot}``,
    static) sit on a deterministic ring of :data:`ISLAND_RADIUS_M`
    around their centre.  The ferry (``ferry``) runs a scripted shuttle
    at :data:`FERRY_SPEED_MPS`:
    island 0 → 1 → … → last → 0, dwelling ``dwell_s`` at each stop,
    ``cycles`` times, then parks at island 0 (its mobility settles, so
    the connectivity bus parks every ferry watch afterwards — zero
    events once service ends).
    """
    if count < 1:
        raise ValueError(f"need at least one islander, got {count}")
    if islands < 2:
        raise ValueError(f"need at least two islands, got {islands}")
    if cycles < 1:
        raise ValueError(f"need at least one ferry cycle, got {cycles}")
    if dwell_s < 0:
        raise ValueError(f"ferry dwell must be non-negative: {dwell_s}")
    scenario = Scenario(seed=seed)
    _clustered_shuttle(
        scenario, count=count, clusters=islands, prefix="i",
        radius_m=ISLAND_RADIUS_M, spacing_m=island_spacing_m,
        shuttle="ferry", speed_mps=FERRY_SPEED_MPS, dwell_s=dwell_s,
        cycles=cycles, technologies=technologies)
    return scenario


def _clustered_shuttle(scenario: Scenario, *, count: int, clusters: int,
                       prefix: str, radius_m: float, spacing_m: float,
                       shuttle: str, speed_mps: float, dwell_s: float,
                       cycles: int,
                       technologies: typing.Sequence[str]) -> None:
    """Static clusters along the x axis served by one scripted shuttle.

    Cluster ``c``'s centre is ``(c × spacing_m, 0)``; residents
    (``{prefix}{c}n{slot}``, dealt round-robin) stand on a ring of
    ``radius_m`` around it.  The ``shuttle`` node tours 0 → 1 → … →
    last → 0 at ``speed_mps`` (Manhattan travel time), dwelling
    ``dwell_s`` per stop, ``cycles`` times, then parks at cluster 0.
    Sets ``scenario.area`` to the row's footprint.  Shared by
    :func:`island_hopping_ferry` and
    :func:`~repro.scenarios.bandwidth.rural_bus_dtn`.
    """
    centres = [(i * spacing_m, 0.0) for i in range(clusters)]
    for index in range(count):
        cluster = index % clusters
        slot = index // clusters
        per_cluster = (count + clusters - 1 - cluster) // clusters
        angle = 2.0 * math.pi * slot / max(1, per_cluster)
        cx, cy = centres[cluster]
        scenario.add_node(
            f"{prefix}{cluster}n{slot}",
            position=(cx + radius_m * math.cos(angle),
                      cy + radius_m * math.sin(angle)),
            technologies=technologies, mobility_class="static")
    waypoints: list[tuple[float, tuple[float, float]]] = []
    clock = 0.0
    stop_sequence = list(range(clusters)) + [0]
    for _cycle in range(cycles):
        for stop_index, cluster in enumerate(stop_sequence):
            target = centres[cluster]
            if waypoints:
                previous = waypoints[-1][1]
                travel = (abs(target[0] - previous[0])
                          + abs(target[1] - previous[1]))
                clock += travel / speed_mps
            waypoints.append((clock, target))
            if stop_index < len(stop_sequence) - 1 or dwell_s > 0:
                clock += dwell_s
                waypoints.append((clock, target))
    scenario.add_node(shuttle, mobility=PathMovement(waypoints),
                      technologies=technologies, mobility_class="dynamic")
    scenario.area = ((clusters - 1) * spacing_m + 2 * radius_m,
                     4 * radius_m)
