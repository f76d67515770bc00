"""Rate-constrained scenario family: contact *duration* is the budget.

The DTN family (:mod:`repro.scenarios.dtn`) makes delivery ride moving
custodians; this family additionally makes every useful contact
*short* or *contended*, so the bandwidth-limited plane
(:mod:`repro.dtn.capacity`) — not mere reachability — decides the
delivery ratio:

* :func:`drive_by_kiosk` — a static kiosk and a static depot beyond
  mutual range, bridged by cars lapping the road between them.  A car
  crosses the kiosk's 10 m Bluetooth disk in a couple of seconds: each
  pass is worth only ``window × rate`` bytes, so large bundles need
  partial-transfer resume across several laps.
* :func:`crowded_festival` — a static announcer amid a dense roaming
  crowd.  Contacts are plentiful and long but the broadcast load is
  heavy, so routers compete on how they spend each window (epidemic
  floods every peer; PRoPHET spends bytes on likelier deliverers).
* :func:`rural_bus_dtn` — villages far out of mutual range, served by
  one bus on a fixed dwell schedule.  The dwell prices the village's
  uplink: ``dwell × rate`` bytes per villager-bus pair per visit —
  the classic rural-connectivity DTN shape.

All builders return an unstarted :class:`~repro.scenarios.builder.
Scenario`; the DTN planes run on pure geometry, so no daemons need
starting.  Like the DTN family they build geometry only and record
their footprint in ``scenario.area``; the experiment registry adds the
optional fault and PHY planes.  Distances in metres, times in
sim-seconds.
"""

from __future__ import annotations

import typing

from repro.mobility.linear import PathMovement
from repro.mobility.waypoint import RandomWaypoint
from repro.radio.technologies import get_technology
from repro.scenarios.builder import Scenario
from repro.scenarios.dtn import _clustered_shuttle


def drive_by_kiosk(count: int = 6, road_length_m: float = 300.0,
                   lane_offset_m: float = 6.0, speed_mps: float = 12.0,
                   headway_s: float = 20.0, laps: int = 4,
                   seed: int = 0,
                   technologies: typing.Sequence[str] = ("bluetooth",),
                   ) -> Scenario:
    """``count`` cars lapping between a kiosk and a depot.

    ``kiosk`` sits at the west end of the road, ``depot`` at the east
    end (``road_length_m`` apart — far beyond radio range), both at
    the roadside; cars ``c0`` … drive the lane ``lane_offset_m`` from
    them, so a pass spends ``2·√(R² − offset²) / speed`` seconds in
    range (≈ 1.3 s for Bluetooth at the defaults) — the shortest
    contact windows in the repo.  ``road_length_m`` should comfortably
    exceed the widest radio range so kiosk and depot stay mutually
    unreachable.  Car ``i`` enters from a staging spot beyond every
    radio's kiosk coverage at ``i × headway_s``, laps kiosk → depot →
    kiosk ``laps`` times, then parks back at the staging spot (its
    mobility settles, so the connectivity bus parks every watch
    afterwards).
    """
    if count < 1:
        raise ValueError(f"need at least one car, got {count}")
    if road_length_m <= 0 or speed_mps <= 0:
        raise ValueError("road needs positive length and speed")
    if lane_offset_m < 0:
        raise ValueError(f"negative lane offset: {lane_offset_m}")
    if laps < 1:
        raise ValueError(f"need at least one lap, got {laps}")
    scenario = Scenario(seed=seed)
    scenario.area = (road_length_m, 2 * lane_offset_m + 10.0)
    scenario.add_node("kiosk", position=(0.0, 0.0),
                      technologies=technologies, mobility_class="static")
    scenario.add_node("depot", position=(road_length_m, 0.0),
                      technologies=technologies, mobility_class="static")
    # Staging must sit outside kiosk coverage on every carried radio,
    # or parked/staged cars would hold a permanent kiosk contact.
    widest_m = max(get_technology(name).range_m for name in technologies)
    stage_x = -(2.0 * max(widest_m, lane_offset_m) + 10.0)
    leg_s = (road_length_m - stage_x) / speed_mps
    for index in range(count):
        start = index * headway_s
        waypoints = [(start, (stage_x, lane_offset_m))]
        clock = start
        for _lap in range(laps):
            clock += leg_s
            waypoints.append((clock, (road_length_m, lane_offset_m)))
            clock += leg_s
            waypoints.append((clock, (stage_x, lane_offset_m)))
        scenario.add_node(f"c{index}", mobility=PathMovement(waypoints),
                          technologies=technologies,
                          mobility_class="dynamic")
    return scenario


def crowded_festival(count: int = 18, area: float = 40.0,
                     speed_range: tuple[float, float] = (0.4, 1.5),
                     pause_range: tuple[float, float] = (0.0, 15.0),
                     seed: int = 0,
                     technologies: typing.Sequence[str] = ("bluetooth",),
                     ) -> Scenario:
    """A static announcer amid a dense, slowly roaming crowd.

    The same shape as :func:`~repro.scenarios.dtn.
    flash_crowd_broadcast` but packed tighter (default 18 attendees on
    a 40 m square): most pairs are in range most of the time, so under
    the bandwidth-limited plane the constraint is *contention for
    window bytes* under a heavy broadcast load, not reachability.
    ``source`` stands at the centre; attendees are ``a0`` ….  The
    registry's ``lossy_festival`` is this world under a default lossy
    PHY profile.
    """
    if count < 1:
        raise ValueError(f"need at least one attendee, got {count}")
    if area <= 0:
        raise ValueError(f"area must be positive: {area}")
    scenario = Scenario(seed=seed)
    scenario.area = (area, area)
    scenario.add_node("source", position=(area / 2.0, area / 2.0),
                      technologies=technologies, mobility_class="static")
    for index in range(count):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"festival/{index}"), area=(area, area),
            speed_range=speed_range, pause_range=pause_range)
        scenario.add_node(f"a{index}", mobility=mobility,
                          technologies=technologies,
                          mobility_class="dynamic")
    return scenario


def rural_bus_dtn(count: int = 9, villages: int = 3,
                  village_radius_m: float = 5.0,
                  village_spacing_m: float = 80.0,
                  bus_speed_mps: float = 8.0, dwell_s: float = 25.0,
                  cycles: int = 4,
                  seed: int = 0,
                  technologies: typing.Sequence[str] = ("bluetooth",),
                  ) -> Scenario:
    """``count`` villagers over ``villages`` clusters plus one bus.

    Village ``i``'s centre sits at ``(i × village_spacing_m, 0)`` —
    far beyond radio range of its neighbours.  Villagers
    (``v{village}n{slot}``, static) stand on a deterministic ring of
    ``village_radius_m`` around their centre.  The bus (``bus``) runs
    the fixed route village 0 → 1 → … → last → 0, dwelling ``dwell_s``
    at each stop, ``cycles`` times, then parks at village 0.  Each
    dwell prices the village's uplink: a villager-bus contact is worth
    about ``dwell × data_rate`` bytes per visit, which is what the
    ``bandwidth_sweep`` campaign constrains.
    """
    if count < 1:
        raise ValueError(f"need at least one villager, got {count}")
    if villages < 2:
        raise ValueError(f"need at least two villages, got {villages}")
    if cycles < 1:
        raise ValueError(f"need at least one bus cycle, got {cycles}")
    if bus_speed_mps <= 0 or dwell_s < 0:
        raise ValueError("bus needs positive speed, non-negative dwell")
    scenario = Scenario(seed=seed)
    _clustered_shuttle(
        scenario, count=count, clusters=villages, prefix="v",
        radius_m=village_radius_m, spacing_m=village_spacing_m,
        shuttle="bus", speed_mps=bus_speed_mps, dwell_s=dwell_s,
        cycles=cycles, technologies=technologies)
    return scenario
