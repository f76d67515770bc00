"""Rate-constrained scenario family: contact *duration* is the budget.

The DTN family (:mod:`repro.scenarios.dtn`) makes delivery ride moving
custodians; this family additionally makes every useful contact
*short* or *contended*, so the bandwidth-limited plane
(:mod:`repro.dtn.capacity`) — not mere reachability — decides the
delivery ratio:

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

from repro.mobility.waypoint import RandomWaypoint
from repro.scenarios.builder import Scenario
from repro.scenarios.dtn import _clustered_shuttle


#: Side of the festival square, metres.
FESTIVAL_SIDE_M = 40.0


def crowded_festival(count: int = 18, seed: int = 0) -> Scenario:
    """A static announcer amid a dense, slowly roaming crowd.

    Packed tight (default 18 attendees on a :data:`FESTIVAL_SIDE_M`
    square, roaming at 0.4–1.5 m/s with pauses up to 15 s): most pairs
    are in range most of the time, so under the bandwidth-limited plane
    the constraint is *contention for window bytes* under a heavy
    broadcast load, not reachability.  ``source`` stands at the centre;
    attendees are ``a0`` ….  The registry's ``lossy_festival`` is this
    world under a default lossy PHY profile.
    """
    if count < 1:
        raise ValueError(f"need at least one attendee, got {count}")
    scenario = Scenario(seed=seed)
    scenario.area = (FESTIVAL_SIDE_M, FESTIVAL_SIDE_M)
    centre = FESTIVAL_SIDE_M / 2.0
    scenario.add_node("source", position=(centre, centre),
                      mobility_class="static")
    for index in range(count):
        mobility = RandomWaypoint(
            scenario.sim.rng(f"festival/{index}"), area=scenario.area,
            speed_range=(0.4, 1.5), pause_range=(0.0, 15.0))
        scenario.add_node(f"a{index}", mobility=mobility,
                          mobility_class="dynamic")
    return scenario


#: Radius of the ring each village's villagers stand on, metres.
VILLAGE_RADIUS_M = 5.0

#: The bus's speed between villages, m/s.
BUS_SPEED_MPS = 8.0

#: Villages, and metres between village centres (far beyond radio
#: range).
VILLAGES = 3
VILLAGE_SPACING_M = 80.0


def rural_bus_dtn(count: int = 9, dwell_s: float = 25.0,
                  seed: int = 0) -> Scenario:
    """``count`` villagers over :data:`VILLAGES` clusters plus one bus.

    Village ``i``'s centre sits at ``(i × VILLAGE_SPACING_M, 0)`` —
    far beyond radio range of its neighbours.  Villagers
    (``v{village}n{slot}``, static) stand on a deterministic ring of
    :data:`VILLAGE_RADIUS_M` around their centre.  The bus (``bus``)
    runs the fixed route village 0 → 1 → … → last → 0 at
    :data:`BUS_SPEED_MPS`, dwelling ``dwell_s`` at each stop,
    :data:`~repro.scenarios.dtn.SHUTTLE_CYCLES` times, then parks at
    village 0.  Each dwell prices the village's uplink: a villager-bus
    contact is worth about ``dwell × data_rate`` bytes per visit, which
    is what the ``bandwidth_sweep`` campaign constrains.
    """
    if count < 1:
        raise ValueError(f"need at least one villager, got {count}")
    if dwell_s < 0:
        raise ValueError(f"bus dwell must be non-negative: {dwell_s}")
    scenario = Scenario(seed=seed)
    _clustered_shuttle(
        scenario, count=count, clusters=VILLAGES, prefix="v",
        radius_m=VILLAGE_RADIUS_M, spacing_m=VILLAGE_SPACING_M,
        shuttle="bus", speed_mps=BUS_SPEED_MPS, dwell_s=dwell_s)
    return scenario
