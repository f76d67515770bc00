"""Large-N scenario family: dense plaza, sparse highway, city day.

The paper evaluated PeerHood with a handful of laptops and phones; the
ROADMAP's north star is production scale.  These builders generate the
workloads that stress the discovery layer at hundreds of devices — the
regime where the seed's O(N²) pairwise neighbor scan collapsed and the
spatial-grid index (:mod:`repro.radio.spatial`) is load-bearing.

Three regimes, chosen to exercise the geometry layer differently:

* :func:`dense_plaza` — many slow pedestrians packed into a small square;
  high cell occupancy, neighbor lists dominated by genuine neighbors.
* :func:`sparse_highway` — fast vehicles strung along kilometres of road;
  most grid cells empty, neighbor lists short, heavy re-bucketing as
  vehicles cross cell boundaries every few sim-seconds.
* :func:`city_day` — a mixed city-scale population (pedestrians,
  scripted vehicles, static kiosks) at constant *density* regardless of
  N, so only the population grows, never the neighbor lists.

All builders return an unstarted :class:`~repro.scenarios.builder.
Scenario` (call ``start_all()``); distances in metres, times in
sim-seconds.
"""

from __future__ import annotations

import math
import typing

from repro.core.config import DaemonConfig
from repro.mobility.linear import LinearMovement, PathMovement
from repro.mobility.waypoint import RandomWaypoint
from repro.scenarios.builder import Scenario


#: Device density of the city and of a plaza at city occupancy, per
#: square metre: about 500 devices per 120 m square.
CITY_DENSITY_PER_M2 = 500.0 / (120.0 * 120.0)


def dense_plaza(count: int, area: float = 60.0, seed: int = 0,
                technologies: typing.Sequence[str] = ("bluetooth",),
                config: DaemonConfig | None = None) -> Scenario:
    """``count`` pedestrians random-waypointing in an ``area`` × ``area``
    metre square (nodes ``p0`` … ``p{count-1}``) at 0.3–1.5 m/s,
    pausing up to 30 s.

    With the defaults and Bluetooth's 10 m radius, 300 pedestrians on a
    60 m square average ~26 neighbors each — dense enough that discovery
    cost is dominated by genuine neighbors, which is exactly the regime
    where the grid's O(neighbors) query wins over the O(N) scan.
    """
    if count < 1:
        raise ValueError(f"need at least one pedestrian, got {count}")
    if area <= 0:
        raise ValueError(f"area must be positive: {area}")
    scenario = Scenario(seed=seed)
    for index in range(count):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"plaza/{index}"), area=(area, area),
            speed_range=(0.3, 1.5), pause_range=(0.0, 30.0))
        scenario.add_node(f"p{index}", mobility=mobility,
                          technologies=technologies,
                          mobility_class="dynamic", config=config)
    return scenario


#: Distance between neighbouring highway lanes, metres.
LANE_SPACING_M = 4.0


#: Lanes of :func:`sparse_highway`; lane 0 drives +x, lane 1 −x.
HIGHWAY_LANES = 2


def sparse_highway(count: int, length_m: float = 2000.0, seed: int = 0,
                   technologies: typing.Sequence[str] = ("wlan",),
                   config: DaemonConfig | None = None) -> Scenario:
    """``count`` vehicles (``v0`` …) on a straight ``length_m``-metre road.

    Vehicles are scattered uniformly along the road in
    :data:`HIGHWAY_LANES` lanes :data:`LANE_SPACING_M` apart; even lanes
    drive +x, odd lanes −x, each at a constant speed drawn from
    22–33 m/s (motorway pace, ~80–120 km/h).  Density is low (tens of metres
    between WLAN-range encounters) and relative speeds are high, so
    neighbor sets are short-lived and the spatial grid re-buckets
    constantly — the opposite stress from :func:`dense_plaza`.
    """
    if count < 1:
        raise ValueError(f"need at least one vehicle, got {count}")
    if length_m <= 0:
        raise ValueError(f"highway needs a positive length: {length_m}")
    scenario = Scenario(seed=seed)
    rng = scenario.sim.rng("highway/layout")
    for index in range(count):
        lane = index % HIGHWAY_LANES
        heading = 1.0 if lane % 2 == 0 else -1.0
        start = (rng.uniform(0.0, length_m), lane * LANE_SPACING_M)
        speed = rng.uniform(22.0, 33.0)
        scenario.add_node(
            f"v{index}",
            mobility=LinearMovement(start, (heading * speed, 0.0)),
            technologies=technologies,
            mobility_class="dynamic", config=config)
    return scenario


def city_day(count: int = 10000, seed: int = 0,
             technologies: typing.Sequence[str] = ("bluetooth",),
             config: DaemonConfig | None = None) -> Scenario:
    """A city-scale mixed population at constant density.

    ``count`` devices on a square sized so the area density is
    :data:`CITY_DENSITY_PER_M2` (dense-plaza-like occupancy regardless
    of ``count``, so the *neighbor* structure stays realistic as N
    grows):

    * 70% random-waypoint pedestrians (``p0`` …) at walking pace;
    * 20% vehicles (``v0`` …) shuttling scripted
      east–west lane runs at 8–14 m/s — two round trips, then parked
      (their :class:`~repro.mobility.linear.PathMovement` settles, so
      the contact plane can park their watches);
    * the remainder static kiosks (``k0`` …) on a regular grid.

    Each grid-backed neighbor query then costs the same at any
    ``count``; a discovery round grows linearly in N.  All distances
    metres, times sim-seconds.
    """
    if count < 3:
        raise ValueError(f"city_day needs at least 3 devices, got {count}")
    area = math.sqrt(count / CITY_DENSITY_PER_M2)
    scenario = Scenario(seed=seed)
    pedestrians = int(count * 0.7)
    vehicles = int(count * 0.2)
    kiosks = count - pedestrians - vehicles
    for index in range(pedestrians):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"city/ped/{index}"), area=(area, area),
            speed_range=(0.5, 2.0), pause_range=(0.0, 30.0))
        scenario.add_node(f"p{index}", mobility=mobility,
                          technologies=technologies,
                          mobility_class="dynamic", config=config)
    lane_rng = scenario.sim.rng("city/lanes")
    for index in range(vehicles):
        lane_y = lane_rng.uniform(0.0, area)
        start_x = lane_rng.uniform(0.0, area)
        speed = lane_rng.uniform(8.0, 14.0)
        # Two east–west round trips from start_x, then parked at home.
        waypoints = [(0.0, (start_x, lane_y))]
        clock = 0.0
        for target_x in (area, 0.0, area, 0.0, start_x):
            previous_x = waypoints[-1][1][0]
            clock += abs(target_x - previous_x) / speed
            waypoints.append((clock, (target_x, lane_y)))
        scenario.add_node(f"v{index}", mobility=PathMovement(waypoints),
                          technologies=technologies,
                          mobility_class="dynamic", config=config)
    if kiosks:
        columns = max(1, math.ceil(math.sqrt(kiosks)))
        spacing = area / columns
        for index in range(kiosks):
            position = ((index % columns + 0.5) * spacing,
                        (index // columns + 0.5) * spacing)
            scenario.add_node(f"k{index}", position=position,
                              technologies=technologies,
                              mobility_class="static", config=config)
    return scenario
