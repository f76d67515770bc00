"""The crossing-time solver: closed form, piecewise, bisection, oracle.

The satellite acceptance: predicted LinkUp/LinkDown times must match a
fine-grained brute-force time-stepped oracle for random mobility-model
pairs across all technologies (hypothesis property at the bottom).
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.mobility import (
    CorridorWalk,
    LinearMovement,
    PathMovement,
    RandomWaypoint,
    StaticPosition,
)
from repro.mobility.base import distance
from repro.radio import BLUETOOTH, GPRS, WLAN, World
from repro.radio.contacts import (
    bisect_predicate_flip,
    distance_crossings,
    inside_at,
    next_distance_crossing,
)
from repro.radio.quality import PiecewiseLinearQuality
from repro.sim import Simulator
from repro.sim.rng import RandomStream


# ----------------------------------------------------------------------
# closed-form cases
# ----------------------------------------------------------------------
def test_static_linear_pair_exact_crossing():
    """b recedes at 1 m/s from 5 m: leaves the 10 m ring at t = 5."""
    crossing = next_distance_crossing(
        StaticPosition(0, 0), LinearMovement((5.0, 0.0), (1.0, 0.0)),
        10.0, 0.0, 100.0)
    assert crossing is not None
    assert crossing.time == pytest.approx(5.0)
    assert crossing.inside is False


def test_approaching_pair_crosses_inward():
    crossing = next_distance_crossing(
        StaticPosition(0, 0), LinearMovement((20.0, 0.0), (-2.0, 0.0)),
        10.0, 0.0, 100.0)
    assert crossing is not None
    assert crossing.time == pytest.approx(5.0)
    assert crossing.inside is True


def test_static_pair_never_crosses():
    assert next_distance_crossing(
        StaticPosition(0, 0), StaticPosition(5, 0), 10.0, 0.0, 1e6) is None


def test_flyby_produces_up_then_down():
    """A node passing a static one: enter then leave, symmetric times."""
    mover = LinearMovement((-20.0, 6.0), (2.0, 0.0))
    crossings = distance_crossings(
        StaticPosition(0, 0), mover, 10.0, 0.0, 100.0)
    assert [c.inside for c in crossings] == [True, False]
    half_chord = math.sqrt(10.0 ** 2 - 6.0 ** 2)
    assert crossings[0].time == pytest.approx((20.0 - half_chord) / 2.0)
    assert crossings[1].time == pytest.approx((20.0 + half_chord) / 2.0)


def test_tangential_graze_is_not_a_crossing():
    """A path that only touches the ring never flips the link."""
    mover = LinearMovement((-30.0, 10.0), (1.0, 0.0))  # grazes at y=10
    assert next_distance_crossing(
        StaticPosition(0, 0), mover, 10.0, 0.0, 100.0) is None


def test_on_ring_start_moving_out_already_counts_as_outside():
    """Starting exactly on the ring and receding: the derivative
    tie-break judges the pair already departing — no flip is reported
    (the conventional ``<=`` in-range answer flips only at this single
    instant, and crossings are defined strictly after t0)."""
    assert next_distance_crossing(
        StaticPosition(0, 0), LinearMovement((10.0, 0.0), (1.0, 0.0)),
        10.0, 0.0, 100.0) is None
    # Approaching from the ring inward, the next flip is the *leave* on
    # the far side (enter never happens: we are already heading in).
    crossing = next_distance_crossing(
        StaticPosition(0, 0), LinearMovement((10.0, 0.0), (-1.0, 0.0)),
        10.0, 0.0, 100.0)
    assert crossing is not None
    assert crossing.inside is False
    assert crossing.time == pytest.approx(20.0)


def test_path_movement_round_trip():
    path = PathMovement([(0.0, (5.0, 0.0)), (10.0, (25.0, 0.0)),
                         (20.0, (5.0, 0.0))])
    crossings = distance_crossings(
        StaticPosition(0, 0), path, 10.0, 0.0, 30.0)
    assert [c.inside for c in crossings] == [False, True]
    assert crossings[0].time == pytest.approx(2.5)   # 5 + 2t = 10
    assert crossings[1].time == pytest.approx(17.5)  # 25 - 2(t-10) = 10


def test_corridor_walk_departure_delay_respected():
    walker = CorridorWalk((8.0, 0.0), heading_deg=0.0, depart_time=50.0)
    crossing = next_distance_crossing(
        StaticPosition(0, 0), walker, 10.0, 0.0, 200.0)
    assert crossing is not None
    # 2 m to cover at 1.4 m/s after departing at t=50.
    assert crossing.time == pytest.approx(50.0 + 2.0 / 1.4)
    assert crossing.inside is False


def test_window_clamps_prediction():
    mover = LinearMovement((5.0, 0.0), (1.0, 0.0))
    assert next_distance_crossing(
        StaticPosition(0, 0), mover, 10.0, 0.0, 3.0) is None
    late = next_distance_crossing(
        StaticPosition(0, 0), mover, 10.0, 3.0, 10.0)
    assert late is not None and late.time == pytest.approx(5.0)


# ----------------------------------------------------------------------
# guarded bisection (quality overrides)
# ----------------------------------------------------------------------
def test_bisect_predicate_flip_refines_to_tolerance():
    crossing = bisect_predicate_flip(
        lambda t: t < math.pi, 0.0, 10.0)
    assert crossing is not None
    assert crossing.time == pytest.approx(math.pi, abs=1e-6)
    assert crossing.time >= math.pi  # flipped side, so re-arms progress
    assert crossing.inside is False


def test_bisect_no_flip_returns_none():
    assert bisect_predicate_flip(lambda t: True, 0.0, 50.0) is None


# ----------------------------------------------------------------------
# world-level solver: quality rings and overrides
# ----------------------------------------------------------------------
def _world_with_pair(mobility_b):
    sim = Simulator(seed=2)
    world = World(sim)
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", mobility_b, [BLUETOOTH])
    return sim, world


def test_quality_threshold_ring_inversion_piecewise():
    model = PiecewiseLinearQuality()
    ring = model.threshold_distance(230, 10.0)
    # Quality >= 230 inside the ring, < 230 just outside (rounding-aware).
    assert model.quality(ring - 1e-6, 10.0) >= 230
    assert model.quality(ring + 1e-6, 10.0) < 230


def test_solver_predicts_quality_crossing_from_geometry():
    sim, world = _world_with_pair(LinearMovement((5.0, 0.0), (1.0, 0.0)))
    crossing = world.contacts.next_quality_crossing("a", "b", BLUETOOTH, 230)
    assert crossing is not None and crossing.inside is False
    # At the predicted instant quality flips below 230.
    assert world.link_quality_at(
        "a", "b", BLUETOOTH, crossing.time - 1e-4) >= 230
    assert world.link_quality_at(
        "a", "b", BLUETOOTH, crossing.time + 1e-4) < 230


def test_solver_bisects_quality_override():
    sim, world = _world_with_pair(StaticPosition(4.0, 0.0))
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=240,
                               decay_per_second=1.0)
    crossing = world.contacts.next_quality_crossing("a", "b", BLUETOOTH, 230)
    assert crossing is not None and crossing.inside is False
    # round(240 - t) < 230 from t = 10.5 on.
    assert crossing.time == pytest.approx(10.5, abs=1e-6)
    assert world.contacts.bisections >= 1


def test_solver_final_for_settled_pairs():
    sim, world = _world_with_pair(StaticPosition(4.0, 0.0))
    assert world.contacts.next_link_crossing("a", "b", BLUETOOTH) is None
    assert world.contacts.pair_settled("a", "b", sim.now)
    sim2, world2 = _world_with_pair(LinearMovement((4.0, 0.0), (1.0, 0.0)))
    assert not world2.contacts.pair_settled("a", "b", sim2.now)


def test_repeated_link_question_is_answered_once_and_never_stale():
    """The solver's one-slot memo: asking the same pair, range and
    start again costs no solve; a pair with other mobility at the same
    instant is solved afresh."""
    sim, world = _world_with_pair(StaticPosition(4.0, 0.0))
    solver = world.contacts
    assert solver.next_link_crossing("a", "b", BLUETOOTH) is None
    assert solver.next_link_crossing("a", "b", BLUETOOTH, t0=0.0) is None
    assert solver.predictions == 1
    world.add_node("c", LinearMovement((4.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    crossing = solver.next_link_crossing("a", "c", BLUETOOTH)
    assert crossing is not None and crossing.inside is False
    assert crossing.time == pytest.approx(6.0)
    assert solver.predictions == 2
    # Another range is another question.
    assert solver.next_link_crossing("a", "c", WLAN).time == pytest.approx(
        46.0)
    assert solver.predictions == 3


# ----------------------------------------------------------------------
# the hypothesis property: solver timeline == brute-force oracle
# ----------------------------------------------------------------------
_ORACLE_STEP_S = 0.05
_ORACLE_END_S = 40.0


def _mobility_strategy():
    points = st.tuples(
        st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False),
        st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False))
    velocities = st.tuples(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    static = st.builds(lambda p: StaticPosition(*p), points)
    linear = st.builds(
        lambda p, v, t0: LinearMovement(p, v, start_time=t0),
        points, velocities, st.floats(0.0, 20.0))
    path = st.builds(
        lambda origin, legs: PathMovement(
            [(0.0, origin)] + [
                (round(sum(dt for dt, _ in legs[:i + 1]), 3), p)
                for i, (_, p) in enumerate(legs)]),
        points,
        st.lists(st.tuples(st.floats(0.5, 15.0), points),
                 min_size=1, max_size=4))
    corridor = st.builds(
        lambda origin, heading, depart, stop: CorridorWalk(
            origin, heading_deg=heading, depart_time=depart,
            stop_distance=stop),
        points, st.floats(0.0, 360.0), st.floats(0.0, 25.0),
        st.one_of(st.none(), st.floats(1.0, 50.0)))
    waypoint = st.builds(
        lambda seed, start: RandomWaypoint(
            RandomStream(seed, "rwp-property"), area=(80.0, 80.0),
            speed_range=(0.5, 3.0), pause_range=(0.0, 8.0), start=start),
        st.integers(0, 2 ** 20), points)
    return st.one_of(static, linear, path, corridor, waypoint)


@given(mobility_a=_mobility_strategy(), mobility_b=_mobility_strategy(),
       tech=st.sampled_from([BLUETOOTH, WLAN, GPRS]))
@example(  # starts exactly on the ring, heading out
    mobility_a=StaticPosition(0.0, 0.0),
    mobility_b=RandomWaypoint(
        RandomStream(0, "rwp-property"), area=(80.0, 80.0),
        speed_range=(0.5, 3.0), pause_range=(0.0, 8.0), start=(10.0, 0.0)),
    tech=BLUETOOTH)
@settings(max_examples=80, deadline=None)
def test_predicted_crossings_match_time_stepped_oracle(
        mobility_a, mobility_b, tech):
    """The predicted LinkUp/LinkDown timeline agrees with brute force.

    The oracle samples ``in-range`` every 50 ms.  At every sample that
    is not within one step of a predicted crossing, the state implied by
    the predictions (initial state + flips so far) must equal the
    sampled truth — a missed or spurious crossing desynchronises the
    timeline for all later samples and fails.
    """
    radius = tech.range_m
    crossings = distance_crossings(
        mobility_a, mobility_b, radius, 0.0, _ORACLE_END_S)
    times = [c.time for c in crossings]
    for earlier, later in zip(crossings, crossings[1:]):
        assert later.time >= earlier.time
        assert later.inside != earlier.inside  # flips must alternate
    initial = inside_at(mobility_a, mobility_b, radius, 0.0)
    if initial != (distance(mobility_a.position(0.0),
                            mobility_b.position(0.0)) <= radius):
        times.append(0.0)  # on the ring heading out: it flips at t = 0

    def predicted_inside(t: float) -> bool:
        state = initial
        for crossing in crossings:
            if crossing.time <= t:
                state = crossing.inside
        return state

    steps = int(_ORACLE_END_S / _ORACLE_STEP_S)
    for index in range(steps + 1):
        t = index * _ORACLE_STEP_S
        if any(abs(t - when) <= _ORACLE_STEP_S for when in times):
            continue  # within quantisation of a flip: either side is fine
        oracle = (distance(mobility_a.position(t),
                           mobility_b.position(t)) <= radius)
        assert predicted_inside(t) == oracle, (
            f"timeline diverged at t={t}: oracle={oracle}, "
            f"crossings={crossings}")
