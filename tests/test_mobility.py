"""Unit tests for mobility models."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mobility import (
    CorridorWalk,
    LinearMovement,
    PathMovement,
    RandomWaypoint,
    StaticPosition,
    distance,
)
from repro.sim.rng import RandomStream


def test_distance_helper():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_static_position_never_moves():
    model = StaticPosition(2.0, 3.0)
    assert model.position(0.0) == (2.0, 3.0)
    assert model.position(1e6) == (2.0, 3.0)
    assert not model.is_mobile()


def test_linear_movement_advances_with_time():
    model = LinearMovement(start=(0.0, 0.0), velocity=(1.0, 2.0))
    assert model.position(0.0) == (0.0, 0.0)
    assert model.position(3.0) == (3.0, 6.0)


def test_linear_movement_waits_until_start_time():
    model = LinearMovement((5.0, 5.0), (1.0, 0.0), start_time=10.0)
    assert model.position(4.0) == (5.0, 5.0)
    assert model.position(12.0) == (7.0, 5.0)


def test_linear_movement_zero_velocity_not_mobile():
    assert not LinearMovement((0, 0), (0.0, 0.0)).is_mobile()
    assert LinearMovement((0, 0), (0.1, 0.0)).is_mobile()


def test_path_movement_interpolates():
    model = PathMovement([(0.0, (0.0, 0.0)), (10.0, (10.0, 0.0))])
    assert model.position(-1.0) == (0.0, 0.0)
    assert model.position(5.0) == (5.0, 0.0)
    assert model.position(99.0) == (10.0, 0.0)


def test_path_movement_holds_between_identical_waypoints():
    model = PathMovement([
        (0.0, (0.0, 0.0)),
        (5.0, (0.0, 0.0)),   # hold for 5 s
        (10.0, (5.0, 0.0)),
    ])
    assert model.position(3.0) == (0.0, 0.0)
    assert model.position(7.5) == (2.5, 0.0)


def test_path_movement_requires_sorted_times():
    with pytest.raises(ValueError):
        PathMovement([(5.0, (0, 0)), (1.0, (1, 1))])


def test_path_movement_requires_waypoints():
    with pytest.raises(ValueError):
        PathMovement([])


def test_path_movement_total_distance():
    model = PathMovement([
        (0.0, (0.0, 0.0)), (1.0, (3.0, 4.0)), (2.0, (3.0, 4.0))])
    assert model.total_distance() == 5.0
    assert model.is_mobile()


def test_corridor_walk_holds_then_departs():
    walk = CorridorWalk(origin=(0.0, 0.0), heading_deg=0.0, speed=2.0,
                        depart_time=10.0)
    assert walk.position(5.0) == (0.0, 0.0)
    x, y = walk.position(13.0)
    assert x == pytest.approx(6.0)
    assert y == pytest.approx(0.0)


def test_corridor_walk_stop_distance():
    walk = CorridorWalk((0.0, 0.0), speed=1.0, stop_distance=4.0)
    x, _ = walk.position(100.0)
    assert x == pytest.approx(4.0)


def test_corridor_walk_time_to_distance():
    walk = CorridorWalk((0.0, 0.0), speed=2.0, depart_time=3.0)
    assert walk.time_to_distance(10.0) == pytest.approx(8.0)


def test_corridor_walk_heading():
    walk = CorridorWalk((0.0, 0.0), heading_deg=90.0, speed=1.0)
    x, y = walk.position(5.0)
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(5.0)


def test_corridor_walk_rejects_bad_speed():
    with pytest.raises(ValueError):
        CorridorWalk((0, 0), speed=0.0)


def test_random_waypoint_is_deterministic_per_stream():
    model_a = RandomWaypoint(RandomStream(1, "rwp"), area=(50.0, 50.0))
    model_b = RandomWaypoint(RandomStream(1, "rwp"), area=(50.0, 50.0))
    samples_a = [model_a.position(t) for t in (0.0, 10.0, 25.0, 100.0)]
    samples_b = [model_b.position(t) for t in (0.0, 10.0, 25.0, 100.0)]
    assert samples_a == samples_b


def test_random_waypoint_stays_in_area():
    model = RandomWaypoint(RandomStream(2, "rwp"), area=(30.0, 20.0))
    for t in range(0, 500, 7):
        x, y = model.position(float(t))
        assert -1e-9 <= x <= 30.0 + 1e-9
        assert -1e-9 <= y <= 20.0 + 1e-9


def test_random_waypoint_out_of_order_queries_consistent():
    model = RandomWaypoint(RandomStream(3, "rwp"))
    late = model.position(200.0)
    early = model.position(50.0)
    assert model.position(200.0) == late
    assert model.position(50.0) == early


def test_random_waypoint_honours_fixed_start():
    model = RandomWaypoint(RandomStream(4, "rwp"), start=(5.0, 5.0),
                           pause_range=(0.0, 0.0))
    assert model.position(0.0) == (5.0, 5.0)


def test_random_waypoint_rejects_bad_ranges():
    rng = RandomStream(5, "rwp")
    with pytest.raises(ValueError):
        RandomWaypoint(rng, speed_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        RandomWaypoint(rng, pause_range=(5.0, 1.0))


def test_random_waypoint_actually_moves():
    model = RandomWaypoint(RandomStream(6, "rwp"), area=(100.0, 100.0),
                           pause_range=(0.0, 0.0))
    start = model.position(0.0)
    later = model.position(60.0)
    assert start != later


# ----------------------------------------------------------------------
# the linear_segments stream contract
# ----------------------------------------------------------------------
def _models():
    """One instance of every mobility model, keyed by class name."""
    return {
        "StaticPosition": StaticPosition(2.0, 3.0),
        "LinearMovement": LinearMovement((0.0, 0.0), (1.0, 0.5),
                                         start_time=4.0),
        "PathMovement": PathMovement([(2.0, (0.0, 0.0)),
                                      (8.0, (6.0, 0.0)),
                                      (12.0, (6.0, 4.0))]),
        "CorridorWalk": CorridorWalk((1.0, 1.0), heading_deg=30.0,
                                     depart_time=3.0, stop_distance=5.0),
        "RandomWaypoint": RandomWaypoint(RandomStream(7, "rwp"),
                                         area=(30.0, 30.0),
                                         pause_range=(1.0, 4.0)),
    }


MODEL_NAMES = sorted(_models())


def _assert_covers(model, t0, t1, pieces):
    """``pieces`` are contiguous, positive-length, span exactly
    ``[t0, t1]`` and agree with ``position(t)``."""
    assert pieces[0][0] == t0 and pieces[-1][1] == t1
    for previous, piece in zip(pieces, pieces[1:]):
        assert previous[1] == piece[0]
    for start, end, (x, y), (vx, vy) in pieces:
        assert end > start
        for t in (start, (start + end) / 2.0, end):
            px, py = model.position(t)
            assert abs(x + vx * (t - start) - px) <= 1e-9
            assert abs(y + vy * (t - start) - py) <= 1e-9


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_linear_segments_is_a_lazy_stream(name):
    stream = _models()[name].linear_segments(0.0, 50.0)
    assert iter(stream) is stream   # an iterator, not a built list


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("t0, t1", [(5.0, 5.0), (5.0, 3.0), (0.0, 0.0),
                                    (-2.0, -3.0)])
def test_empty_window_yields_nothing(name, t0, t1):
    assert list(_models()[name].linear_segments(t0, t1)) == []


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("t0, t1", [(-10.0, 30.0), (-10.0, -4.0),
                                    (-0.5, 0.25)])
def test_window_before_time_zero_starts_at_t0(name, t0, t1):
    model = _models()[name]
    _assert_covers(model, t0, t1, list(model.linear_segments(t0, t1)))


def test_random_waypoint_waits_at_its_start_before_time_zero():
    model = _models()["RandomWaypoint"]
    first = next(iter(model.linear_segments(-10.0, 30.0)))
    assert first == (-10.0, 0.0, model.position(0.0), (0.0, 0.0))


# ----------------------------------------------------------------------
# lazy random-waypoint legs are stream-safe
# ----------------------------------------------------------------------
_times = st.floats(min_value=-20.0, max_value=900.0, allow_nan=False)
_operations = st.lists(st.one_of(
    st.tuples(st.just("open"), _times,
              st.floats(min_value=1e-3, max_value=700.0)),
    st.tuples(st.just("pull"), st.integers(0, 7), st.integers(1, 6)),
    st.tuples(st.just("abandon"), st.integers(0, 7)),
    st.tuples(st.just("position"), _times),
), max_size=30)


def _fresh_twin(seed):
    return RandomWaypoint(RandomStream(seed, "rwp"), area=(60.0, 40.0),
                          pause_range=(0.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), operations=_operations)
def test_random_waypoint_lazy_legs_are_stream_safe(seed, operations):
    """Interleaved, partly consumed and abandoned segment streams plus
    out-of-order ``position`` queries see exactly what an untouched
    model with an equal stream sees."""
    model = _fresh_twin(seed)
    streams = []        # [window, iterator, pieces pulled so far]
    queried = []
    for operation in operations:
        kind = operation[0]
        if kind == "open":
            window = (operation[1], operation[1] + operation[2])
            streams.append([window, model.linear_segments(*window), []])
        elif kind == "pull" and streams:
            window, stream, pulled = streams[operation[1] % len(streams)]
            pulled.extend(itertools.islice(stream, operation[2]))
        elif kind == "abandon" and streams:
            del streams[operation[1] % len(streams)]
        elif kind == "position":
            queried.append((operation[1], model.position(operation[1])))
    for t, point in queried:
        assert _fresh_twin(seed).position(t) == point
    for window, stream, pulled in streams:
        expected = list(_fresh_twin(seed).linear_segments(*window))
        assert pulled + list(stream) == expected
        assert list(model.linear_segments(*window)) == expected
        # Piece starts are position() exactly, not merely within 1e-9:
        # the solver's predictions must not depend on how a point was
        # reached.
        assert all(point == model.position(start)
                   for start, _end, point, _velocity in expected)
