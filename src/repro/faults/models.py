"""Composable fault models: sample a schedule, arm it on a plane.

Each model draws its schedule from its own labelled RNG sub-streams
(``faults/crash/<node>``, ``faults/radio/<node>``, ``faults/byz/<node>``,
``faults/jammer/<i>``) so

* the schedule is a pure function of ``(master seed, parameters)`` —
  byte-identical at any worker count, and
* installing faults never perturbs mobility / traffic / latency draws
  (labelled streams are independent; see :mod:`repro.sim.rng`).

:func:`install_scenario_faults` is the scenario-registry entry point: it
composes the standard four models from plain keyword parameters and —
crucially — installs **nothing at all** when every rate is zero, so a
zero-rate configuration runs the literal fault-free code path
(``world.faults is None``; the differential benchmark gates on this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plane import (BYZANTINE, CRASH, DEAF, DEAF_END, JAMMER,
                                MUTE, MUTE_END, REBOOT, FaultEvent,
                                FaultPlane)
from repro.mobility.waypoint import RandomWaypoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.builder import Scenario

#: Traffic terminals the bundled scenarios address by name; fault models
#: never pick them, so workloads always have live endpoints to measure.
SPARE_TERMINALS = frozenset({"home", "work", "kiosk", "depot", "source"})

#: Sampled durations spread uniformly over [0.5, 1.5] × the scale param.
_DURATION_SPREAD = (0.5, 1.5)


class FaultModel:
    """One fault family; ``install`` samples and arms its schedule.

    Models are composable: install any subset onto one
    :class:`~repro.faults.plane.FaultPlane` in any order — each samples
    from its own labelled sub-streams, so composition never changes any
    individual schedule.
    """

    def install(self, plane: FaultPlane, nodes) -> list[FaultEvent]:
        """Sample this model's events for ``nodes`` and arm them.

        ``nodes`` is iterated in sorted order and each node gets its own
        sub-stream, so membership changes elsewhere never shift another
        node's draw.  Returns the armed events.
        """
        raise NotImplementedError


class CrashReboot(FaultModel):
    """Transient node death: dark for a sampled outage, state wiped.

    Each selected node crashes once, at an onset uniform over the fault
    window, for ``[0.5, 1.5] × downtime_s``.  Distinct from permanent
    removal: the node reboots at its mobility position with an empty
    store, cleared summary vector, and no router state — peers must
    rediscover it and may re-infect it with copies it already carried.
    """

    def __init__(self, rate: float, downtime_s: float = 45.0,
                 window_s: float = 480.0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"crash rate out of range: {rate}")
        if downtime_s <= 0 or window_s <= 0:
            raise ValueError("downtime and window must be positive")
        self.rate = rate
        self.downtime_s = downtime_s
        self.window_s = window_s

    def install(self, plane: FaultPlane, nodes) -> list[FaultEvent]:
        events = []
        for node in sorted(nodes):
            rng = plane.sim.rng(f"faults/crash/{node}")
            if not rng.bernoulli(self.rate):
                continue
            onset = rng.uniform(0.0, self.window_s)
            downtime = rng.uniform(*_DURATION_SPREAD) * self.downtime_s
            events.append(FaultEvent(onset, CRASH, node))
            events.append(FaultEvent(onset + downtime, REBOOT, node))
        plane.arm(events)
        return events


class RadioFault(FaultModel):
    """Half-duplex radio failure: deaf (won't receive) or mute (won't
    send) for an interval, chosen per node with equal odds.

    Unlike a crash the node keeps its state and stays discoverable —
    only the affected direction of bundle transfer is suppressed, so a
    mute carrier still *accumulates* custody it cannot shed.
    """

    def __init__(self, rate: float, outage_s: float = 45.0,
                 window_s: float = 480.0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"radio-fault rate out of range: {rate}")
        if outage_s <= 0 or window_s <= 0:
            raise ValueError("outage and window must be positive")
        self.rate = rate
        self.outage_s = outage_s
        self.window_s = window_s

    def install(self, plane: FaultPlane, nodes) -> list[FaultEvent]:
        events = []
        for node in sorted(nodes):
            rng = plane.sim.rng(f"faults/radio/{node}")
            if not rng.bernoulli(self.rate):
                continue
            deaf = rng.random() < 0.5
            start = rng.uniform(0.0, self.window_s)
            duration = rng.uniform(*_DURATION_SPREAD) * self.outage_s
            begin, end = (DEAF, DEAF_END) if deaf else (MUTE, MUTE_END)
            events.append(FaultEvent(start, begin, node))
            events.append(FaultEvent(start + duration, end, node))
        plane.arm(events)
        return events


class ByzantineBeacons(FaultModel):
    """Nodes that advertise false discovery info: an empty summary
    vector ("I carry nothing"), permanently, from t = 0.

    The lie never corrupts ground truth — reception, delivery and
    custody settlement still use real store state — it only attracts
    duplicate offers, burning honest nodes' transmissions and contact
    bytes (counted ``byzantine_beacons``).
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"byzantine rate out of range: {rate}")
        self.rate = rate

    def install(self, plane: FaultPlane, nodes) -> list[FaultEvent]:
        events = []
        for node in sorted(nodes):
            rng = plane.sim.rng(f"faults/byz/{node}")
            if rng.bernoulli(self.rate):
                events.append(FaultEvent(0.0, BYZANTINE, node))
        plane.arm(events)
        return events


class MobileJammer(FaultModel):
    """Roaming coverage disks that suppress transfer attempts inside.

    Each jammer is a random-waypoint mover (its own ``faults/jammer/i``
    stream) with a fixed radius; it is positional state, not a node —
    zero kernel events, evaluated lazily at transfer-attempt instants.
    """

    def __init__(self, count: int, area, radius_m: float = 10.0,
                 speed_range=(1.0, 3.0), pause_range=(0.0, 10.0)):
        if count < 0:
            raise ValueError(f"jammer count must be >= 0: {count}")
        self.count = count
        self.area = area
        self.radius_m = radius_m
        self.speed_range = speed_range
        self.pause_range = pause_range

    def install(self, plane: FaultPlane, nodes) -> list[FaultEvent]:
        events = []
        for index in range(self.count):
            mobility = RandomWaypoint(
                plane.sim.rng(f"faults/jammer/{index}"), area=self.area,
                speed_range=self.speed_range,
                pause_range=self.pause_range)
            plane.add_jammer(mobility, self.radius_m)
            events.append(FaultEvent(0.0, JAMMER, f"jammer{index}"))
        plane.arm(events)
        return events


def install_scenario_faults(scenario: "Scenario", *,
                            crash_rate: float = 0.0,
                            crash_downtime_s: float = 45.0,
                            radio_fault_rate: float = 0.0,
                            byzantine_rate: float = 0.0,
                            jammer_count: int = 0,
                            fault_window_s: float = 480.0,
                            area=(60.0, 60.0),
                            jammer_radius_m: float = 10.0,
                            spare=SPARE_TERMINALS):
    """Compose the standard fault models onto a freshly built scenario.

    Called by the scenario registry after a factory's topology is in
    place.  Returns the installed :class:`FaultPlane`, or ``None`` —
    installing nothing — when every rate is zero and there are no
    jammers: the zero-rate configuration *is* the fault-free plane
    (``world.faults`` stays unset), which is what the differential
    benchmark gate compares against.

    ``crash_downtime_s`` doubles as the radio-fault outage scale (one
    knob for "how long do outages last").  ``spare`` nodes (the named
    traffic terminals by default) are never selected by node-targeting
    models; the jammer roams ``area`` regardless.
    """
    for name, rate in (("crash_rate", crash_rate),
                       ("radio_fault_rate", radio_fault_rate),
                       ("byzantine_rate", byzantine_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} out of range: {rate}")
    if jammer_count < 0:
        raise ValueError(f"jammer_count must be >= 0: {jammer_count}")
    if (crash_rate <= 0 and radio_fault_rate <= 0
            and byzantine_rate <= 0 and jammer_count <= 0):
        return None
    plane = FaultPlane(scenario.world)
    eligible = [node for node in scenario.world.node_ids()
                if node not in spare]
    if crash_rate > 0:
        CrashReboot(crash_rate, crash_downtime_s,
                    fault_window_s).install(plane, eligible)
    if radio_fault_rate > 0:
        RadioFault(radio_fault_rate, crash_downtime_s,
                   fault_window_s).install(plane, eligible)
    if byzantine_rate > 0:
        ByzantineBeacons(byzantine_rate).install(plane, eligible)
    if jammer_count > 0:
        MobileJammer(jammer_count, area,
                     jammer_radius_m).install(plane, eligible)
    return plane
