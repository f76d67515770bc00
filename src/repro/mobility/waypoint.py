"""Random-waypoint mobility, the standard ad-hoc network evaluation model."""

from __future__ import annotations

import bisect

from repro.mobility.base import MobilityModel, Point, distance
from repro.sim.rng import RandomStream


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
        self._legs: list[tuple[float, float, Point, Point]] = []
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
        """Legs and pauses intersecting ``[t0, t1]``; extends the cache.

        Leg generation draws only from this model's own stream, so
        predicting ahead never perturbs any other component — the legs a
        later ``position`` query would generate are identical.
        """
        if t0 < 0:
            t0 = 0.0
        self._extend_until(t1)
        still = (0.0, 0.0)
        segments: list = []
        cursor = t0
        index = max(0, bisect.bisect_right(self._leg_starts, t0) - 1)
        for i in range(index, len(self._legs)):
            if cursor >= t1:
                break
            leg_start, leg_end, origin, target = self._legs[i]
            if leg_start > cursor:  # pause before this leg departs
                end = min(leg_start, t1)
                segments.append((cursor, end, self.position(cursor), still))
                cursor = end
                if cursor >= t1:
                    break
            if leg_end <= cursor or leg_end == leg_start:
                continue
            travel = leg_end - leg_start
            velocity = ((target[0] - origin[0]) / travel,
                        (target[1] - origin[1]) / travel)
            end = min(leg_end, t1)
            segments.append((cursor, end, self.position(cursor), velocity))
            cursor = end
        if cursor < t1:  # pausing past the last generated leg's arrival
            segments.append((cursor, t1, self.position(cursor), still))
        return segments

    def position(self, t: float) -> Point:
        """Position at time ``t`` (sim-seconds); O(log legs) per call."""
        if t < 0:
            t = 0.0
        self._extend_until(t)
        if not self._legs:
            return self._current_point
        index = bisect.bisect_right(self._leg_starts, t) - 1
        if index < 0:
            return self._legs[0][2]  # before the first departure
        leg_start, leg_end, origin, target = self._legs[index]
        if t > leg_end:
            return target  # pausing at this leg's destination
        if leg_end == leg_start:
            return target
        fraction = (t - leg_start) / (leg_end - leg_start)
        return (origin[0] + fraction * (target[0] - origin[0]),
                origin[1] + fraction * (target[1] - origin[1]))
