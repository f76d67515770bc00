"""The paper's §5.2.1 walk: hold position, then leave at walking speed.

"After we took the laptop from the office to the corridor during a
connection ... we can lose the connection in few seconds with a normal
walking speed."  This model scripts exactly that experiment.
"""

from __future__ import annotations

import math

from repro.mobility.base import MobilityModel, Point

#: Normal human walking speed, m/s.
WALKING_SPEED_MS = 1.4


class CorridorWalk(MobilityModel):
    """Stand still at ``origin`` until ``depart_time``, then walk away.

    Parameters
    ----------
    origin:
        Where the device sits initially (the office).
    heading_deg:
        Direction of departure, degrees counter-clockwise from +x.
    speed:
        Walking speed in m/s (default 1.4, a normal walk).
    depart_time:
        Virtual time at which the walk starts.
    stop_distance:
        Optional distance after which the walker halts (end of corridor).
    """

    def __init__(self, origin: Point, heading_deg: float = 0.0,
                 speed: float = WALKING_SPEED_MS, depart_time: float = 0.0,
                 stop_distance: float | None = None):
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        if stop_distance is not None and stop_distance < 0:
            raise ValueError(f"negative stop distance: {stop_distance}")
        self.origin = (float(origin[0]), float(origin[1]))
        self.speed = speed
        self.depart_time = depart_time
        self.stop_distance = stop_distance
        heading_rad = math.radians(heading_deg)
        self._direction = (math.cos(heading_rad), math.sin(heading_rad))

    def position(self, t: float) -> Point:
        elapsed = max(0.0, t - self.depart_time)
        travelled = self.speed * elapsed
        if self.stop_distance is not None:
            travelled = min(travelled, self.stop_distance)
        return (self.origin[0] + self._direction[0] * travelled,
                self.origin[1] + self._direction[1] * travelled)

    def linear_segments(self, t0: float, t1: float):
        still = (0.0, 0.0)
        velocity = (self._direction[0] * self.speed,
                    self._direction[1] * self.speed)
        boundaries = [self.depart_time]
        if self.stop_distance is not None:
            boundaries.append(self.depart_time
                              + self.stop_distance / self.speed)
        cursor = t0
        for boundary in boundaries:
            if cursor >= t1:
                break
            if boundary <= cursor:
                continue
            end = min(boundary, t1)
            moving = cursor >= self.depart_time
            yield (cursor, end, self.position(cursor),
                   velocity if moving else still)
            cursor = end
        if cursor < t1:
            moving = (self.stop_distance is None
                      and cursor >= self.depart_time)
            yield (cursor, t1, self.position(cursor),
                   velocity if moving else still)

    def settled_after(self) -> float | None:
        if self.stop_distance is None:
            return None
        return self.depart_time + self.stop_distance / self.speed

    def time_to_distance(self, distance_m: float) -> float:
        """Virtual time at which the walker is ``distance_m`` from origin."""
        if distance_m < 0:
            raise ValueError(f"negative distance: {distance_m}")
        if self.stop_distance is not None:
            distance_m = min(distance_m, self.stop_distance)
        return self.depart_time + distance_m / self.speed
