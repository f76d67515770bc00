"""Property-based tests (hypothesis) on core data structures & invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import RoutingPolicy
from repro.core.device import (
    DeviceIdentity,
    MobilityClass,
    address_for,
    mobility_addition,
)
from repro.core.device_storage import DeviceStorage
from repro.core.protocol import NeighbourEntry
from repro.core.routing import RouteMetrics, is_better_route
from repro.metrics.stats import summarize
from repro.mobility import PathMovement, RandomWaypoint, StaticPosition
from repro.radio import BLUETOOTH, WLAN, World
from repro.radio.quality import (
    QUALITY_MAX,
    PiecewiseLinearQuality,
    clamp_quality,
)
from repro.sim import Simulator

mobility_classes = st.sampled_from(list(MobilityClass))

routes = st.builds(
    RouteMetrics,
    jump=st.integers(min_value=0, max_value=8),
    first_hop_mobility=mobility_classes,
    quality_sum=st.integers(min_value=0, max_value=2000),
    min_link_quality=st.integers(min_value=0, max_value=255),
)

policies = st.builds(
    RoutingPolicy,
    quality_threshold=st.integers(min_value=0, max_value=255),
    use_quality_threshold=st.booleans(),
    use_mobility=st.booleans(),
    quality_first=st.booleans(),
    max_jump=st.integers(min_value=0, max_value=10),
)


# ----------------------------------------------------------------------
# routing order properties
# ----------------------------------------------------------------------
@given(routes, policies)
def test_route_is_never_better_than_itself(route, policy):
    assert not is_better_route(route, route, policy)


@given(routes, routes, policies)
def test_route_preference_is_asymmetric(a, b, policy):
    if is_better_route(a, b, policy):
        assert not is_better_route(b, a, policy)


@given(routes, routes, routes, policies)
def test_route_preference_is_transitive(a, b, c, policy):
    if is_better_route(a, b, policy) and is_better_route(b, c, policy):
        assert is_better_route(a, c, policy)


# ----------------------------------------------------------------------
# mobility & identity properties
# ----------------------------------------------------------------------
@given(mobility_classes, mobility_classes)
def test_mobility_addition_bounds(a, b):
    total = mobility_addition(a, b)
    assert 0 <= total <= 6
    assert total == int(a) + int(b)


@given(st.text(min_size=1, max_size=40))
def test_address_is_stable_and_shaped(name):
    first = address_for(name)
    assert first == address_for(name)
    parts = first.split(":")
    assert len(parts) == 6
    assert all(len(p) == 2 and all(c in "0123456789abcdef" for c in p)
               for p in parts)


# ----------------------------------------------------------------------
# quality model properties
# ----------------------------------------------------------------------
@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=1.0, max_value=100.0))
def test_piecewise_quality_bounded(distance, range_m):
    model = PiecewiseLinearQuality()
    value = model.quality(distance, range_m)
    assert 0 <= value <= QUALITY_MAX


@given(st.floats(min_value=1.0, max_value=100.0),
       st.lists(st.floats(min_value=0.0, max_value=1.5),
                min_size=2, max_size=20))
def test_piecewise_quality_monotone_nonincreasing(range_m, fractions):
    model = PiecewiseLinearQuality()
    distances = sorted(f * range_m for f in fractions)
    values = [model.quality(d, range_m) for d in distances]
    assert values == sorted(values, reverse=True)


@given(st.floats(min_value=-1000, max_value=1000))
def test_clamp_quality_always_in_scale(value):
    assert 0 <= clamp_quality(value) <= QUALITY_MAX


# ----------------------------------------------------------------------
# storage invariants under random update sequences
# ----------------------------------------------------------------------
names = st.sampled_from([f"dev{i}" for i in range(6)])


@st.composite
def storage_operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["direct", "analyze", "age"]))
        if kind == "direct":
            ops.append(("direct", draw(names),
                        draw(st.integers(min_value=1, max_value=255)),
                        draw(mobility_classes)))
        elif kind == "analyze":
            reporter = draw(names)
            advertised = draw(st.lists(
                st.tuples(names,
                          st.integers(min_value=0, max_value=4),
                          st.integers(min_value=1, max_value=255)),
                max_size=4))
            ops.append(("analyze", reporter, advertised))
        else:
            ops.append(("age",))
    return ops


@given(storage_operations())
@settings(max_examples=60, deadline=None)
def test_storage_invariants_hold_under_any_sequence(operations):
    own = DeviceIdentity.create("own-node")
    storage = DeviceStorage(own_address=own.address, stale_after_loops=2)
    now = 0.0
    for op in operations:
        now += 1.0
        if op[0] == "direct":
            _, name, quality, mobility = op
            storage.update_direct(
                DeviceIdentity.create(name, mobility), "bluetooth",
                quality, [], now=now)
        elif op[0] == "analyze":
            _, reporter_name, advertised = op
            reporter = storage.get(DeviceIdentity.create(reporter_name)
                                   .address)
            if reporter is None or not reporter.is_direct():
                continue
            entries = [NeighbourEntry(
                address=DeviceIdentity.create(n).address, name=n,
                prototype="bluetooth", mobility=MobilityClass.DYNAMIC,
                jump=j, route_quality_sum=q, route_min_quality=q)
                for n, j, q in advertised]
            storage.analyze_neighbourhood(reporter, entries, now=now)
        else:
            responded = [d.address for d in storage.direct_devices()[::2]]
            storage.make_older(responded)
        # Invariants after every operation:
        for device in storage.devices():
            # 1. own device never stored
            assert device.address != own.address
            # 2. direct entries have no bridge; remote entries have one
            if device.is_direct():
                assert device.bridge is None
            else:
                assert device.bridge is not None
                # 3. every bridge is a stored *direct* device
                bridge = storage.get(device.bridge)
                assert bridge is not None and bridge.is_direct()
                # 4. remote jumps never exceed the policy cap
                assert device.jump <= storage.policy.max_jump
            # 5. quality figures stay on the scale
            assert device.route.min_link_quality <= device.route.quality_sum


# ----------------------------------------------------------------------
# spatial grid vs brute force: the neighbor oracle
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=18),
       steps=st.lists(st.floats(min_value=0.1, max_value=60.0),
                      min_size=1, max_size=5),
       removals=st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_grid_neighbors_equal_brute_force_under_motion(
        seed, count, steps, removals):
    """Grid-backed ``neighbors()`` must equal the O(N) pairwise result at
    every instant, for every node and technology, under random-waypoint
    motion, mixed radios, mixed static/mobile nodes and mid-run node
    suspension (a crash takes the node out of every grid)."""
    sim = Simulator(seed=seed)
    world = World(sim)
    for index in range(count):
        name = f"n{index}"
        if index % 4 == 0:
            mobility = StaticPosition(7.0 * index, 3.0 * (index % 3))
        else:
            mobility = RandomWaypoint(
                sim.rng(f"rwp/{name}"), area=(45.0, 45.0),
                speed_range=(0.5, 4.0), pause_range=(0.0, 5.0))
        technologies = (["bluetooth"] if index % 3 else ["bluetooth", "wlan"])
        world.add_node(name, mobility, technologies)

    def check_all():
        for node_id in world.node_ids():
            for tech in (BLUETOOTH, WLAN):
                assert (world.neighbors(node_id, tech)
                        == world.neighbors_brute_force(node_id, tech)), (
                    node_id, tech.name, sim.now)

    check_all()
    for index, step in enumerate(steps):
        sim.timeout(step)
        sim.run()
        if index < removals and len(world.node_ids()) > 1:
            world.suspend_node(world.node_ids()[index % len(world.node_ids())])
        check_all()


# ----------------------------------------------------------------------
# statistics properties
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_summary_bounds(values):
    summary = summarize(values)
    # fmean can overshoot min/max by an ulp on identical values; allow it.
    slack = 1e-9 * max(1.0, abs(summary.minimum), abs(summary.maximum))
    assert summary.minimum - slack <= summary.mean <= (
        summary.maximum + slack)
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.count == len(values)


# ----------------------------------------------------------------------
# mobility model properties
# ----------------------------------------------------------------------
@given(st.lists(
    st.tuples(st.floats(min_value=0, max_value=1000),
              st.tuples(st.floats(min_value=-100, max_value=100),
                        st.floats(min_value=-100, max_value=100))),
    min_size=1, max_size=8),
    st.floats(min_value=-10, max_value=1100))
def test_path_movement_stays_within_waypoint_bounding_box(waypoints, t):
    waypoints = sorted(waypoints, key=lambda w: w[0])
    model = PathMovement(waypoints)
    x, y = model.position(t)
    xs = [p[0] for _, p in model.waypoints]
    ys = [p[1] for _, p in model.waypoints]
    assert min(xs) - 1e-9 <= x <= max(xs) + 1e-9
    assert min(ys) - 1e-9 <= y <= max(ys) + 1e-9
