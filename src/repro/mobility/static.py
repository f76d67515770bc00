"""Fixed-position model for servers, PCs and laptops on desks."""

from __future__ import annotations

from repro.mobility.base import MobilityModel, Point


class StaticPosition(MobilityModel):
    """A node that never moves."""

    def __init__(self, x: float, y: float):
        self._point: Point = (float(x), float(y))

    def position(self, t: float) -> Point:
        return self._point

    def is_mobile(self) -> bool:
        return False

    def linear_segments(self, t0: float, t1: float):
        if t1 > t0:
            yield (t0, t1, self._point, (0.0, 0.0))

    def settled_after(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"StaticPosition{self._point}"
