"""Analytic crossing-time solver: when does a pair cross a range ring?

Every bundled mobility model is piecewise linear in time (static points,
constant-velocity legs, scripted waypoints, random-waypoint legs + pauses),
so the inter-node distance on any common segment is ``|D + V·s|`` for
constant ``D`` (relative offset) and ``V`` (relative velocity) — and the
instant it crosses a threshold radius ``R`` solves the quadratic

    (V·V) s² + 2 (D·V) s + (D·D − R²) = 0

in closed form.  That turns link maintenance from "poll every node every
interval" into "schedule one event at the predicted crossing": the
discrete-event treatment that lets OMNeT++-style mobility studies scale,
applied to the PeerHood world.

Two prediction tiers:

* **piecewise closed form** over the pair's lazy segment streams
  (:meth:`repro.mobility.base.MobilityModel.linear_segments`, which
  every mobility model implements) — usually one piece for a
  static/linear pair, several for waypoint/walker/random-waypoint
  motion.  The merge pulls segments only as it walks and stops at the
  first flip, so a solve costs the pieces up to that flip, not the
  whole horizon;
* **guarded bisection** for pairs under a quality override (the
  Fig. 5.8 decay), which is an arbitrary function of time: sample the
  predicate at a fixed step, then bisect the first flip.

All public entry points answer the same question: *the earliest time
strictly after* ``t0`` *at which a boolean predicate of the pair flips*,
reported as a :class:`Crossing`.  ``None`` means "no flip before the
horizon" — the caller (the connectivity bus) re-arms at the horizon.
Units: metres, sim-seconds.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.mobility.base import MobilityModel

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.technologies import Technology
    from repro.radio.world import World

#: How far ahead one prediction looks (sim-seconds).  Beyond it the bus
#: schedules a re-check — the "segment rollover" bound that keeps lazily
#: generated random-waypoint legs from being forced arbitrarily far ahead.
HORIZON_S = 600.0

#: A pair whose ``distance² − R²`` is within this fraction of ``R²``
#: (of 1 below R = 1 m) is on the ring and takes the state it heads
#: toward (:func:`inside_at`, :func:`next_distance_crossing`).
_ON_RING_REL = 1e-9

#: Sampling step of guarded bisection (sim-seconds).  Flips shorter than
#: this can be missed; only quality overrides take this path, never
#: geometry.
BISECT_STEP_S = 0.25

#: Bisection refinement tolerance (sim-seconds).
BISECT_TOL_S = 1e-9


@dataclasses.dataclass(frozen=True, slots=True)
class Crossing:
    """One predicted predicate flip.

    ``time`` is the crossing instant; ``inside`` is the predicate state
    *after* it (for a range ring: True = within the radius, so
    ``inside=True`` is a LinkUp and ``inside=False`` a LinkDown).
    """

    time: float
    inside: bool


def _state_at_piece_start(c0: float, b: float, a: float,
                          eps: float) -> bool:
    """Inside/outside at a piece start, derivative tie-break on the ring.

    ``c(s) = a s² + b s + c0`` is ``distance² − R²``.  Within ``eps`` of
    the ring (a crossing was just solved here, or the pair starts
    exactly on it) the state that matters is where the pair is
    *heading* — re-solving from a returned root then sees the
    post-crossing state and progresses instead of re-reporting it.
    """
    if c0 < -eps:
        return True
    if c0 > eps:
        return False
    if b != 0.0:
        return b < 0.0
    return a <= 0.0


def inside_at(mobility_a: MobilityModel, mobility_b: MobilityModel,
              threshold_m: float, t: float) -> bool:
    """``distance(a, b) <= threshold_m`` at ``t``, by the solver's rule.

    Off the ring this is the plain distance test.  A pair on the ring
    (within the solver's epsilon) takes the state it is heading toward,
    the state :func:`next_distance_crossing` starts from — so a stream
    seeded with this answer and fed that solver's crossings never
    reports a contact that does not close, or a close that never
    opened.  O(1) off the ring; one relative piece on it.
    """
    r_squared = threshold_m * threshold_m
    on_ring_eps = _ON_RING_REL * max(1.0, r_squared)
    pos_a, pos_b = mobility_a.position(t), mobility_b.position(t)
    dx, dy = pos_a[0] - pos_b[0], pos_a[1] - pos_b[1]
    c0 = (dx * dx + dy * dy) - r_squared
    if abs(c0) > on_ring_eps:
        return c0 < 0.0
    # Both streams' first segments start at t (the segment contract),
    # so they are the first relative piece.
    _sa, _ea, start_a, vel_a = next(iter(
        mobility_a.linear_segments(t, t + HORIZON_S)))
    _sb, _eb, start_b, vel_b = next(iter(
        mobility_b.linear_segments(t, t + HORIZON_S)))
    dx, dy = start_a[0] - start_b[0], start_a[1] - start_b[1]
    vx, vy = vel_a[0] - vel_b[0], vel_a[1] - vel_b[1]
    return _state_at_piece_start(
        (dx * dx + dy * dy) - r_squared, 2.0 * (dx * vx + dy * vy),
        vx * vx + vy * vy, on_ring_eps)


def next_distance_crossing(
        mobility_a: MobilityModel, mobility_b: MobilityModel,
        threshold_m: float, t0: float, t1: float,
        pulled: list[int] | None = None) -> Crossing | None:
    """Earliest flip of ``distance(a, b) <= threshold_m`` in ``(t0, t1]``.

    Closed-form over the pair's merged linear segment streams; ``None``
    when no flip occurs before ``t1``.  Units: metres in, sim-seconds
    out.  O(pieces walked to the first flip), each piece one quadratic
    solve: the merge pulls from the models' lazy streams only as it
    walks, so only a flip-free window costs O(S_a + S_b).  ``pulled[0]``,
    when given, is increased by the segments pulled.
    Tangential grazes are not flips; a pair starting exactly on the
    ring takes the state it is heading toward, so re-solving from a
    returned crossing time always progresses.
    """
    if threshold_m <= 0:
        raise ValueError(f"threshold must be positive: {threshold_m}")
    if t1 <= t0:
        return None
    if pulled is None:
        pulled = [0]
    next_a = iter(mobility_a.linear_segments(t0, t1)).__next__
    next_b = iter(mobility_b.linear_segments(t0, t1)).__next__
    r_squared = threshold_m * threshold_m
    on_ring_eps = _ON_RING_REL * max(1.0, r_squared)
    initial: bool | None = None
    # One two-pointer walk over both streams: over the relative piece
    # [u, v] the offset a−b is (dx, dy) + (vx, vy)·(t − u), and
    # c(s) = a s² + b s + c0 is distance² − R² at t = u + s.  A segment
    # is pulled only once the walk has passed the previous one.
    try:
        a_start, a_end, a_pos, a_vel = next_a()
        b_start, b_end, b_pos, b_vel = next_b()
        pulled[0] += 2
        while True:
            u = b_start if b_start > a_start else a_start  # max()
            v = b_end if b_end < a_end else a_end          # min()
            if v > u:
                ax = a_pos[0] + a_vel[0] * (u - a_start)
                ay = a_pos[1] + a_vel[1] * (u - a_start)
                bx = b_pos[0] + b_vel[0] * (u - b_start)
                by = b_pos[1] + b_vel[1] * (u - b_start)
                dx, dy = ax - bx, ay - by
                vx, vy = a_vel[0] - b_vel[0], a_vel[1] - b_vel[1]
                a = vx * vx + vy * vy
                b = 2.0 * (dx * vx + dy * vy)
                c0 = (dx * dx + dy * dy) - r_squared
                state = _state_at_piece_start(c0, b, a, on_ring_eps)
                if initial is None:
                    initial = state
                elif state != initial:
                    # The flip fell exactly on a segment boundary
                    # (tangential grazes and on-ring starts land here).
                    return Crossing(u, state)
                # No relative motion (a == 0), or no crossing or only a
                # tangential touch (disc <= 0): no flip inside the piece.
                disc = b * b - 4.0 * a * c0
                if a != 0.0 and disc > 0.0:
                    sqrt_disc = math.sqrt(disc)
                    span = v - u
                    for s in ((-b - sqrt_disc) / (2.0 * a),
                              (-b + sqrt_disc) / (2.0 * a)):
                        if 0.0 < s <= span and u + s > t0:
                            # State after a simple root follows c's
                            # slope there: falling c means the pair is
                            # diving inside the ring.  A root whose
                            # after-state equals ``initial`` is not a
                            # flip — it is the ring point a re-solve
                            # starts on.
                            slope = 2.0 * a * s + b
                            if slope != 0.0 and (slope < 0.0) != initial:
                                return Crossing(u + s, slope < 0.0)
            if a_end <= v:
                a_start, a_end, a_pos, a_vel = next_a()
                pulled[0] += 1
            if b_end <= v:
                b_start, b_end, b_pos, b_vel = next_b()
                pulled[0] += 1
    except StopIteration:
        return None


def distance_crossings(
        mobility_a: MobilityModel, mobility_b: MobilityModel,
        threshold_m: float, t0: float, t1: float) -> list[Crossing]:
    """All flips in ``(t0, t1]``, in time order (test/trace helper).

    O(C · P) for C crossings in the window and P pieces walked per
    re-solve — each crossing re-enters :func:`next_distance_crossing`
    from the previous root.
    """
    crossings: list[Crossing] = []
    cursor = t0
    while True:
        crossing = next_distance_crossing(
            mobility_a, mobility_b, threshold_m, cursor, t1)
        if crossing is None:
            return crossings
        if crossings and crossing.time <= crossings[-1].time:
            # Degenerate repeat (should not happen); refuse to spin.
            return crossings
        crossings.append(crossing)
        cursor = crossing.time


def bisect_predicate_flip(
        predicate: typing.Callable[[float], bool], t0: float, t1: float,
        ) -> Crossing | None:
    """Guarded bisection: first flip of ``predicate`` in ``(t0, t1]``.

    Samples every :data:`BISECT_STEP_S`, then bisects the first flipped
    bracket down to :data:`BISECT_TOL_S`.  Returns the *earliest sampled
    time at which the predicate has already flipped* (so re-arming from
    the returned time sees the new state and makes progress).  Flips
    narrower than the step can be missed — hence "guarded": callers
    reserve this for monotone-ish signals such as the Fig. 5.8 linear
    quality decay.  All times in sim-seconds; O((t1 − t0)/step +
    log₂(step/tolerance)) predicate evaluations.
    """
    if t1 <= t0:
        return None
    initial = predicate(t0)
    lo = t0
    while lo < t1:
        hi = min(lo + BISECT_STEP_S, t1)
        if predicate(hi) != initial:
            while hi - lo > BISECT_TOL_S:
                mid = (lo + hi) / 2.0
                if predicate(mid) != initial:
                    hi = mid
                else:
                    lo = mid
            return Crossing(hi, not initial)
        lo = hi
    return None


class ContactSolver:
    """World-aware prediction of link and quality-threshold crossings.

    One solver per :class:`~repro.radio.world.World`; every prediction
    window is :data:`HORIZON_S` long.  ``predictions`` counts closed-form
    solves, ``bisections`` the override scans — the benchmarks assert
    the hot path stays analytic — and ``segments`` the mobility
    segments those solves pulled.

    :meth:`next_link_crossing` keeps its last answer in one slot keyed
    on ``(mobility_a, mobility_b, range_m, start)``, the mobility models
    compared by identity and held by the slot: a LinkUp consumer's
    window solve and the bus's re-arm straight after it ask the same
    question, and the second is answered without solving.  The key
    cannot go stale — a node's mobility is fixed when it is added.

    After the slot, :attr:`crossings` — a crossing table, ``None``
    unless a caller hands one in — answers from earlier solves keyed on
    ``(a, b, range_m, start)``, node *names* not models, and records
    every miss.  Names stand for paths only across worlds built from
    the same scenario, seed and params: the legs of one paired DTN
    cell share one table (:func:`repro.experiments.workloads.paired_dtn`),
    so a later leg re-solves only the questions an earlier leg never
    asked.  ``predictions`` and ``segments`` count real solves only.
    """

    def __init__(self, world: "World"):
        self.world = world
        self.predictions = 0
        self.bisections = 0
        self._pulled = [0]
        self._last_link: tuple | None = None
        #: Link crossings shared by worlds replaying the same node paths
        #: (see the class docstring); ``None`` solves every question.
        self.crossings: dict[tuple, Crossing | None] | None = None

    @property
    def segments(self) -> int:
        """Segments pulled from mobility models, summed over solves."""
        return self._pulled[0]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _mobilities(self, a: str,
                    b: str) -> tuple[MobilityModel, MobilityModel] | None:
        # The world owns this solver: one read of its node table per
        # endpoint, since every arm and every re-arm asks.
        nodes = self.world._nodes
        node_a = nodes.get(a)
        node_b = nodes.get(b)
        if node_a is None or node_b is None:
            return None
        return node_a.mobility, node_b.mobility

    def pair_settled(self, a: str, b: str, after: float) -> bool:
        """True when neither node will ever move again after ``after``.

        A settled pair's distance is constant forever, so a prediction
        window with no crossing is *final* — the bus parks the watch
        instead of re-checking every horizon.  O(1) (two
        ``settled_after()`` queries); unknown nodes count as settled
        (they never cross anything).  ``after`` in sim-seconds.
        """
        pair = self._mobilities(a, b)
        if pair is None:
            return True  # unknown nodes never cross anything
        for mobility in pair:
            settled = mobility.settled_after()
            if settled is None or settled > after:
                return False
        return True

    # ------------------------------------------------------------------
    # link (range-ring) crossings
    # ------------------------------------------------------------------
    def next_link_crossing(self, a: str, b: str, tech: "Technology",
                           t0: float | None = None) -> Crossing | None:
        """Next flip of ``in range on tech`` for the pair, or ``None``.

        ``Crossing.inside`` True is a LinkUp instant, False a LinkDown.
        ``t0`` defaults to the world's current instant; the window ends
        :data:`HORIZON_S` later — ``None`` means "no flip before the
        horizon", which callers must treat as *re-check at the
        horizon*, not "never" (unless :meth:`pair_settled`).  Cost: one
        closed-form solve, O(pieces walked to the first flip); O(1)
        when it repeats the previous call's question or one the crossing
        table holds (see the class docstring); a pair with an unknown
        endpoint answers ``None`` without solving.
        """
        start = self.world.sim.now if t0 is None else t0
        pair = self._mobilities(a, b)
        if pair is None:
            return None
        last = self._last_link
        if (last is not None and last[0] is pair[0] and last[1] is pair[1]
                and last[2] == tech.range_m and last[3] == start):
            return last[4]
        table = self.crossings
        key = (a, b, tech.range_m, start)
        if table is not None and key in table:
            crossing = table[key]
        else:
            self.predictions += 1
            crossing = next_distance_crossing(
                pair[0], pair[1], tech.range_m, start, start + HORIZON_S,
                self._pulled)
            if table is not None:
                table[key] = crossing
        self._last_link = (pair[0], pair[1], tech.range_m, start, crossing)
        return crossing

    # ------------------------------------------------------------------
    # quality-threshold crossings
    # ------------------------------------------------------------------
    def next_quality_crossing(self, a: str, b: str, tech: "Technology",
                              threshold: int,
                              t0: float | None = None) -> Crossing | None:
        """Next flip of ``link_quality(a, b, tech) >= threshold``.

        ``Crossing.inside`` True means quality is at/above the threshold
        after the instant (QualityAbove), False below (QualityBelow);
        ``threshold`` is on the 0–255 scale, window semantics as in
        :meth:`next_link_crossing`.  Quality never reads below 0, so a
        threshold of 0 or less never flips and answers ``None``.  With a
        quality override installed the override is an arbitrary
        callable, so the solver bisects the full quality function of
        time (O(horizon/step) samples, counted in ``bisections``); pure
        geometry inverts the threshold to a distance ring via
        :meth:`~repro.radio.quality.PiecewiseLinearQuality.threshold_distance`
        and reuses the closed-form distance solver (counted in
        ``predictions``).  A threshold quality can never reach (ring
        ≤ 0) answers ``None`` immediately.
        """
        if threshold <= 0:
            return None  # quality >= 0 holds everywhere: no ring, no flip
        start = self.world.sim.now if t0 is None else t0
        end = start + HORIZON_S
        world = self.world
        if world.has_override(a, b, tech):
            self.bisections += 1

            def predicate(t: float) -> bool:
                return world.link_quality_at(a, b, tech, t) >= threshold
            return bisect_predicate_flip(predicate, start, end)
        ring = world.quality_model.threshold_distance(threshold, tech.range_m)
        if ring <= 0.0:
            return None  # quality can never reach the threshold: no flips
        pair = self._mobilities(a, b)
        if pair is None:
            return None
        self.predictions += 1
        return next_distance_crossing(pair[0], pair[1], ring, start, end,
                                      self._pulled)
