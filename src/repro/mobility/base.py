"""Base types for mobility models."""

from __future__ import annotations

import math
import typing

#: A 2-D position in metres.
Point = typing.Tuple[float, float]

#: One piece of piecewise-linear motion: ``(start_t, end_t, position at
#: start_t, velocity)``.  Within the piece ``position(t) = p + v * (t -
#: start_t)``.  Times in sim-seconds, positions in metres, velocity m/s.
Segment = typing.Tuple[float, float, Point, Point]


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class MobilityModel:
    """Interface: position as a pure function of virtual time.

    Implementations must be deterministic: calling ``position(t)`` twice
    with the same ``t`` returns the same point, and queries may arrive out
    of time order (the discovery loops of different devices sample the world
    at their own cadence).
    """

    def position(self, t: float) -> Point:
        """The node's position at virtual time ``t`` (seconds)."""
        raise NotImplementedError

    def is_mobile(self) -> bool:
        """True if the model ever changes position (for trace labelling)."""
        return True

    def linear_segments(self, t0: float,
                        t1: float) -> typing.Iterator[Segment]:
        """Piecewise-linear description of the motion over ``[t0, t1]``.

        A lazy stream of contiguous :data:`Segment` tuples of positive
        length covering exactly the window (first starts at ``t0``, last
        ends at ``t1``) and agreeing with :meth:`position` throughout;
        an empty window (``t1 <= t0``) yields nothing.  Consumers only
        iterate it — never index or measure it — and may stop early:
        the connectivity-event solver (:mod:`repro.radio.contacts`)
        predicts every link crossing from it and stops pulling at the
        first flip, so a model should do a segment's work only when
        that segment is pulled.  Every model must implement it.
        """
        raise NotImplementedError

    def settled_after(self) -> float | None:
        """Time after which the position is constant forever, or ``None``.

        Lets the contact solver mark a pair as *final* (no further link
        crossings can ever occur) instead of re-checking every horizon.
        """
        return None
