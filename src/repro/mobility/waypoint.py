"""Random-waypoint mobility, the standard ad-hoc network evaluation model."""

from __future__ import annotations

import bisect

from repro.mobility.base import MobilityModel, Point, distance
from repro.sim.rng import RandomStream

#: One leg: ``(start_time, end_time, from_point, to_point)``.
Leg = tuple[float, float, Point, Point]


def _point_on(leg: Leg, t: float) -> Point:
    """Position at ``t`` given ``leg``, the last leg departing at or
    before ``t``: on the leg while it lasts, then at its destination."""
    leg_start, leg_end, origin, target = leg
    if t > leg_end or leg_end == leg_start:
        return target  # pausing at this leg's destination
    fraction = (t - leg_start) / (leg_end - leg_start)
    return (origin[0] + fraction * (target[0] - origin[0]),
            origin[1] + fraction * (target[1] - origin[1]))


class RandomWaypoint(MobilityModel):
    """Pick a random destination, move to it at a random speed, pause, repeat.

    Legs are generated lazily but cached, so out-of-order time queries are
    consistent.  All randomness comes from the supplied stream — two models
    with equal streams trace identical paths.

    Parameters
    ----------
    rng:
        Seeded random stream (use ``sim.rng(f"rwp/{name}")``).
    area:
        ``(width, height)`` of the rectangle the node roams in, metres.
    speed_range:
        ``(min, max)`` speed in m/s, drawn uniformly per leg.
    pause_range:
        ``(min, max)`` pause at each waypoint in seconds.
    start:
        Starting point; defaults to a random point in the area.
    """

    def __init__(self, rng: RandomStream, area: Point = (100.0, 100.0),
                 speed_range: tuple[float, float] = (0.5, 2.0),
                 pause_range: tuple[float, float] = (0.0, 10.0),
                 start: Point | None = None):
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ValueError(f"invalid speed range: {speed_range}")
        if pause_range[0] < 0 or pause_range[1] < pause_range[0]:
            raise ValueError(f"invalid pause range: {pause_range}")
        self._rng = rng
        self.area = area
        self.speed_range = speed_range
        self.pause_range = pause_range
        if start is None:
            start = (rng.uniform(0.0, area[0]), rng.uniform(0.0, area[1]))
        # Each leg: (start_time, end_time, from_point, to_point) followed by
        # a pause until the next leg's start_time.  ``_leg_starts`` mirrors
        # the start times so ``position`` can bisect instead of scanning —
        # the spatial-grid refresh evaluates every mobile node per
        # timestep, so lookups must not degrade with elapsed sim time.
        # The cache itself cannot be pruned: queries may legally arrive
        # out of time order (see MobilityModel).
        self._legs: list[Leg] = []
        self._leg_starts: list[float] = []
        self._next_leg_start = 0.0
        self._current_point: Point = start

    def _extend_until(self, t: float) -> None:
        while self._next_leg_start <= t:
            origin = self._current_point
            target = (self._rng.uniform(0.0, self.area[0]),
                      self._rng.uniform(0.0, self.area[1]))
            speed = self._rng.uniform(*self.speed_range)
            travel = distance(origin, target) / speed
            leg_start = self._next_leg_start
            leg_end = leg_start + travel
            self._legs.append((leg_start, leg_end, origin, target))
            self._leg_starts.append(leg_start)
            pause = self._rng.uniform(*self.pause_range)
            self._next_leg_start = leg_end + pause
            self._current_point = target

    def linear_segments(self, t0: float, t1: float):
        """Legs and pauses intersecting ``[t0, t1]``; the leg cache
        grows only as far as the stream is pulled.

        Leg generation draws only from this model's own stream, so
        predicting ahead — or abandoning a stream half-way — never
        perturbs any other component: the legs a later ``position``
        query generates are identical.  Before time 0 the node waits at
        its start.  Piece starts equal :meth:`position` exactly: both
        apply :func:`_point_on` to the last leg departing at or before
        that instant, which the walk tracks instead of bisecting.
        """
        if t1 <= t0:
            return
        still = (0.0, 0.0)
        cursor = t0
        if cursor < 0.0:
            end = min(0.0, t1)
            yield (cursor, end, self.position(cursor), still)
            cursor = end
            if cursor >= t1:
                return
        self._extend_until(cursor)
        legs = self._legs
        index = bisect.bisect_right(self._leg_starts, cursor) - 1
        departed = legs[index]  # the last leg departing at or before cursor
        while cursor < t1:
            if index == len(legs):
                if self._next_leg_start >= t1:
                    break   # pausing past the last leg until the window ends
                self._extend_until(self._next_leg_start)
            leg = legs[index]
            index += 1
            leg_start, leg_end, origin, target = leg
            if leg_start > cursor:  # pause before this leg departs
                end = min(leg_start, t1)
                yield (cursor, end, _point_on(departed, cursor), still)
                cursor = end
                if cursor >= t1:
                    return
            departed = leg
            if leg_end <= cursor or leg_end == leg_start:
                continue
            travel = leg_end - leg_start
            velocity = ((target[0] - origin[0]) / travel,
                        (target[1] - origin[1]) / travel)
            end = min(leg_end, t1)
            yield (cursor, end, _point_on(leg, cursor), velocity)
            cursor = end
        if cursor < t1:  # pausing past the last leg's arrival
            yield (cursor, t1, _point_on(departed, cursor), still)

    def position(self, t: float) -> Point:
        """Position at time ``t`` (sim-seconds); O(log legs) per call."""
        if t < 0:
            t = 0.0
        self._extend_until(t)  # the first leg departs at 0: index >= 0
        index = bisect.bisect_right(self._leg_starts, t) - 1
        return _point_on(self._legs[index], t)
