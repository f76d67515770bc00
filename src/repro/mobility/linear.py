"""Constant-velocity and scripted-waypoint movement."""

from __future__ import annotations

import typing

from repro.mobility.base import MobilityModel, Point, distance


class LinearMovement(MobilityModel):
    """Motion at constant velocity from a starting point.

    ``position(t) = start + velocity * (t - start_time)`` with ``t`` clamped
    below ``start_time`` (the node waits at the start until then).
    """

    def __init__(self, start: Point, velocity: Point,
                 start_time: float = 0.0):
        self.start = (float(start[0]), float(start[1]))
        self.velocity = (float(velocity[0]), float(velocity[1]))
        self.start_time = float(start_time)

    def position(self, t: float) -> Point:
        elapsed = max(0.0, t - self.start_time)
        return (self.start[0] + self.velocity[0] * elapsed,
                self.start[1] + self.velocity[1] * elapsed)

    def is_mobile(self) -> bool:
        return self.velocity != (0.0, 0.0)

    def linear_segments(self, t0: float, t1: float):
        if t1 <= t0:
            return
        still = (0.0, 0.0)
        if t1 <= self.start_time or self.velocity == still:
            yield (t0, t1, self.position(t0), still)
        elif t0 >= self.start_time:
            yield (t0, t1, self.position(t0), self.velocity)
        else:
            yield (t0, self.start_time, self.start, still)
            yield (self.start_time, t1, self.start, self.velocity)

    def settled_after(self) -> float | None:
        return 0.0 if self.velocity == (0.0, 0.0) else None

    def __repr__(self) -> str:
        return (f"LinearMovement(start={self.start}, "
                f"velocity={self.velocity}, t0={self.start_time})")


class PathMovement(MobilityModel):
    """Scripted waypoints: ``[(t0, p0), (t1, p1), ...]``, interpolated.

    Before ``t0`` the node sits at ``p0``; after the last waypoint it stays
    there.  Between waypoints the position is linear in time.  Used to
    script the exact walks of the paper's scenarios (Figs. 5.3, 5.6, 5.7).
    """

    def __init__(self, waypoints: typing.Sequence[tuple[float, Point]]):
        if not waypoints:
            raise ValueError("PathMovement requires at least one waypoint")
        times = [t for t, _ in waypoints]
        if times != sorted(times):
            raise ValueError("waypoint times must be non-decreasing")
        self.waypoints = [(float(t), (float(p[0]), float(p[1])))
                          for t, p in waypoints]

    def position(self, t: float) -> Point:
        first_time, first_point = self.waypoints[0]
        if t <= first_time:
            return first_point
        for (t0, p0), (t1, p1) in zip(self.waypoints, self.waypoints[1:]):
            if t <= t1:
                if t1 == t0:
                    return p1
                fraction = (t - t0) / (t1 - t0)
                return (p0[0] + fraction * (p1[0] - p0[0]),
                        p0[1] + fraction * (p1[1] - p0[1]))
        return self.waypoints[-1][1]

    def is_mobile(self) -> bool:
        points = {p for _, p in self.waypoints}
        return len(points) > 1

    def linear_segments(self, t0: float, t1: float):
        if t1 <= t0:
            return
        cursor = t0
        first_time = self.waypoints[0][0]
        if cursor < first_time:
            end = min(first_time, t1)
            yield (cursor, end, self.waypoints[0][1], (0.0, 0.0))
            cursor = end
        for (a_t, a_p), (b_t, b_p) in zip(self.waypoints,
                                          self.waypoints[1:]):
            if cursor >= t1:
                break
            if b_t <= cursor or b_t == a_t:
                continue
            end = min(b_t, t1)
            if end <= cursor:
                continue
            velocity = ((b_p[0] - a_p[0]) / (b_t - a_t),
                        (b_p[1] - a_p[1]) / (b_t - a_t))
            yield (cursor, end, self.position(cursor), velocity)
            cursor = end
        if cursor < t1:
            yield (cursor, t1, self.waypoints[-1][1], (0.0, 0.0))

    def settled_after(self) -> float:
        return self.waypoints[-1][0]

    def total_distance(self) -> float:
        """Length of the scripted path in metres."""
        legs = zip(self.waypoints, self.waypoints[1:])
        return sum(distance(p0, p1) for (_, p0), (_, p1) in legs)
