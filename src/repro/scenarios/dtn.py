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

from repro.mobility.linear import PathMovement
from repro.mobility.waypoint import RandomWaypoint
from repro.scenarios.builder import Scenario


#: The commuter corridor's length and width, metres.
CORRIDOR_LENGTH_M = 120.0
CORRIDOR_WIDTH_M = 8.0


def commuter_corridor(count: int = 10, seed: int = 0) -> Scenario:
    """``count`` commuters in a :data:`CORRIDOR_LENGTH_M` ×
    :data:`CORRIDOR_WIDTH_M` corridor.

    ``home`` sits at the west end, ``work`` at the east end; with
    Bluetooth's 10 m radius the two are never in range of each other
    or of a commuter at the far end, so ``home`` → ``work`` bundles are
    deliverable only store-carry-forward.  Commuters (``m0`` …
    ``m{count-1}``) random-waypoint at 0.8–2.0 m/s, pausing up to
    30 s.  The registry's ``hostile_corridor`` is this world under a
    hostile fault preset.
    """
    if count < 1:
        raise ValueError(f"need at least one commuter, got {count}")
    scenario = Scenario(seed=seed)
    scenario.area = (CORRIDOR_LENGTH_M, CORRIDOR_WIDTH_M)
    mid = CORRIDOR_WIDTH_M / 2.0
    scenario.add_node("home", position=(0.0, mid), mobility_class="static")
    scenario.add_node("work", position=(CORRIDOR_LENGTH_M, mid),
                      mobility_class="static")
    for index in range(count):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"corridor/{index}"), area=scenario.area,
            speed_range=(0.8, 2.0), pause_range=(0.0, 30.0))
        scenario.add_node(f"m{index}", mobility=mobility,
                          mobility_class="dynamic")
    return scenario


#: Radius of the ring each island's islanders stand on, metres.
ISLAND_RADIUS_M = 5.0

#: The ferry's speed between islands, m/s.
FERRY_SPEED_MPS = 5.0

#: Islands, metres between island centres (well beyond radio range),
#: and the ferry's dwell per stop, seconds.
ISLANDS = 3
ISLAND_SPACING_M = 60.0
FERRY_DWELL_S = 20.0

#: Tours a clustered shuttle makes before it parks.
SHUTTLE_CYCLES = 4


def island_hopping_ferry(count: int = 9, seed: int = 0) -> Scenario:
    """``count`` islanders over :data:`ISLANDS` clusters plus one ferry.

    Island ``i``'s centre is at ``(i * ISLAND_SPACING_M, 0)``, far
    enough apart that islands are mutually unreachable.  Islanders
    (``i{island}n{slot}``, static) sit on a deterministic ring of
    :data:`ISLAND_RADIUS_M` around their centre.  The ferry (``ferry``)
    runs a scripted shuttle at :data:`FERRY_SPEED_MPS`: island 0 → 1 →
    … → last → 0, dwelling :data:`FERRY_DWELL_S` at each stop,
    :data:`SHUTTLE_CYCLES` times, then parks at island 0 (its mobility
    settles, so the connectivity bus parks every ferry watch
    afterwards — zero events once service ends).
    """
    if count < 1:
        raise ValueError(f"need at least one islander, got {count}")
    scenario = Scenario(seed=seed)
    _clustered_shuttle(
        scenario, count=count, clusters=ISLANDS, prefix="i",
        radius_m=ISLAND_RADIUS_M, spacing_m=ISLAND_SPACING_M,
        shuttle="ferry", speed_mps=FERRY_SPEED_MPS, dwell_s=FERRY_DWELL_S)
    return scenario


def _clustered_shuttle(scenario: Scenario, *, count: int, clusters: int,
                       prefix: str, radius_m: float, spacing_m: float,
                       shuttle: str, speed_mps: float,
                       dwell_s: float) -> None:
    """Static clusters along the x axis served by one scripted shuttle.

    Cluster ``c``'s centre is ``(c × spacing_m, 0)``; residents
    (``{prefix}{c}n{slot}``, dealt round-robin) stand on a ring of
    ``radius_m`` around it.  The ``shuttle`` node tours 0 → 1 → … →
    last → 0 at ``speed_mps`` (Manhattan travel time), dwelling
    ``dwell_s`` per stop, :data:`SHUTTLE_CYCLES` times, then parks at
    cluster 0.  Every node carries Bluetooth only.
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
            mobility_class="static")
    waypoints: list[tuple[float, tuple[float, float]]] = []
    clock = 0.0
    stop_sequence = list(range(clusters)) + [0]
    for _cycle in range(SHUTTLE_CYCLES):
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
                      mobility_class="dynamic")
    scenario.area = ((clusters - 1) * spacing_m + 2 * radius_m,
                     4 * radius_m)
