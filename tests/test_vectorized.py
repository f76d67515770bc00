"""The batch geometry engine vs the scalar oracle.

Every test here is an equivalence check: the numpy-vectorized hot path
(:mod:`repro.radio.vectorized`) must agree with the scalar world —
neighbor sets exactly, crossing times bitwise, positions to float
tolerance — across mobility models, technologies, membership churn and
the bus registration path.
"""

import json

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSpec,
    aggregate,
    run_spec,
    write_csv,
    write_jsonl,
)
from repro.mobility import (
    LinearMovement,
    PathMovement,
    RandomWaypoint,
    StaticPosition,
)
from repro.radio import BLUETOOTH, WLAN, World
from repro.radio.bus import ConnectivityBus
from repro.radio.contacts import next_distance_crossing
from repro.radio.vectorized import (
    VectorEngine,
    batch_distance_crossings,
    multi_arange,
)
from repro.scenarios import city_day, dense_plaza, sparse_highway
from repro.sim import Simulator


def mixed_world(seed=3, count=40, area=70.0):
    """A world mixing every bundled mobility model on both radios."""
    sim = Simulator(seed=seed)
    world = World(sim)
    for index in range(count):
        name = f"n{index:03d}"
        kind = index % 4
        if kind == 0:
            mobility = StaticPosition(3.1 * index % area, 5.7 * index % area)
        elif kind == 1:
            mobility = RandomWaypoint(
                sim.rng(f"rwp/{name}"), area=(area, area),
                speed_range=(0.4, 3.0), pause_range=(0.0, 8.0))
        elif kind == 2:
            mobility = LinearMovement(
                (index % 9 * 7.0, index % 5 * 11.0),
                (0.6 * (1 if index % 2 else -1), 0.3))
        else:
            x = index % 11 * 6.0
            mobility = PathMovement(
                [(0.0, (x, 0.0)), (30.0, (x, area / 2)),
                 (75.0, (0.0, area / 2)), (90.0, (0.0, area / 2))])
        technologies = ["bluetooth"] if index % 3 else ["bluetooth", "wlan"]
        world.add_node(name, mobility, technologies)
    return sim, world


# ----------------------------------------------------------------------
# positions and row bookkeeping
# ----------------------------------------------------------------------
def test_positions_match_scalar_to_tolerance():
    sim, world = mixed_world()
    engine = world.vector_engine(BLUETOOTH)
    for step in (0.0, 7.5, 40.0, 120.0):
        sim.timeout(step)
        sim.run()
        positions = engine.positions_at(sim.now)
        for row, node_id in enumerate(engine.ids):
            x, y = world.position(node_id)
            assert positions[row, 0] == pytest.approx(x, abs=1e-9)
            assert positions[row, 1] == pytest.approx(y, abs=1e-9)


def test_rows_follow_sorted_ids_and_piece_expiry_recompiles():
    sim, world = mixed_world(count=12)
    engine = world.vector_engine(BLUETOOTH)
    engine.positions_at(0.0)
    assert engine.ids == sorted(world.node_ids())
    assert engine.row_of(engine.ids[5]) == 5
    compiled_first = engine.pieces_compiled
    assert compiled_first == len(engine.ids)
    # Same instant: nothing stale, nothing recompiled.
    engine.positions_at(0.0)
    assert engine.pieces_compiled == compiled_first
    # Far future: every finite piece expired and recompiled.
    sim.timeout(500.0)
    sim.run()
    engine.positions_at(sim.now)
    assert engine.pieces_compiled > compiled_first


# ----------------------------------------------------------------------
# neighbor equivalence: the core contract
# ----------------------------------------------------------------------
def assert_vector_matches_scalar(world, tech):
    batch = world.all_neighbors_vectorized(tech)
    scalar = world.all_neighbors(tech)
    # Suspended/other-tech nodes are absent from the engine but present
    # (with their neighbors filtered) in the scalar map.
    for node_id, neighbors in batch.items():
        assert neighbors == scalar[node_id], (node_id, tech.name)


def test_all_neighbors_equals_scalar_mixed_models():
    sim, world = mixed_world()
    for step in (0.0, 12.0, 33.0, 100.0):
        sim.timeout(step)
        sim.run()
        for tech in (BLUETOOTH, WLAN):
            assert_vector_matches_scalar(world, tech)


def test_all_neighbors_equals_scalar_on_scenarios():
    for scenario, tech in ((dense_plaza(80, area=50.0, seed=4), BLUETOOTH),
                           (sparse_highway(60, seed=4), WLAN),
                           (city_day(150, seed=4), BLUETOOTH)):
        for step in (5.0, 20.0):
            scenario.sim.timeout(step)
            scenario.sim.run()
            assert_vector_matches_scalar(scenario.world, tech)


def test_engine_tracks_membership_churn():
    sim, world = mixed_world(count=20)
    engine = world.vector_engine(BLUETOOTH)
    assert_vector_matches_scalar(world, BLUETOOTH)
    world.suspend_node("n003")
    assert "n003" not in engine.all_neighbors(sim.now)
    assert_vector_matches_scalar(world, BLUETOOTH)
    world.remove_node("n007")
    world.add_node("zz-new", StaticPosition(1.0, 1.0), ["bluetooth"])
    assert_vector_matches_scalar(world, BLUETOOTH)
    world.resume_node("n003")
    neighbors = engine.all_neighbors(sim.now)
    assert "n003" in neighbors and "zz-new" in neighbors
    assert "n007" not in neighbors
    assert_vector_matches_scalar(world, BLUETOOTH)


def test_candidate_pairs_cover_scalar_grid_candidates():
    """Every true neighbor pair appears exactly once among candidates."""
    sim, world = mixed_world(count=30)
    engine = world.vector_engine(BLUETOOTH)
    pair_i, pair_j, _ = engine.candidate_pairs(sim.now)
    seen = set()
    for a, b in zip(pair_i.tolist(), pair_j.tolist()):
        assert a != b
        key = (min(a, b), max(a, b))
        assert key not in seen, "candidate pair generated twice"
        seen.add(key)
    scalar = world.all_neighbors(BLUETOOTH)
    row_of = {node_id: row for row, node_id in enumerate(engine.ids)}
    for node_id, neighbors in scalar.items():
        for other in neighbors:
            a, b = row_of[node_id], row_of[other]
            assert (min(a, b), max(a, b)) in seen


def test_sparse_join_path_matches_dense():
    """WLAN on kilometres of highway trips the searchsorted fallback."""
    scenario = sparse_highway(40, length_m=250_000.0, seed=2)
    world = scenario.world
    engine = world.vector_engine(WLAN)
    positions = engine.positions_at(0.0)
    ncells_estimate = (positions[:, 0].max() - positions[:, 0].min()) \
        / WLAN.range_m
    assert ncells_estimate > 8 * len(engine.ids)  # fallback regime
    assert_vector_matches_scalar(world, WLAN)


def test_multi_arange_matches_concatenated_aranges():
    starts = np.array([4, 0, 9, 2])
    counts = np.array([3, 1, 2, 5])
    expected = np.concatenate(
        [np.arange(s, s + c) for s, c in zip(starts, counts)])
    assert (multi_arange(starts, counts) == expected).all()
    assert len(multi_arange(np.empty(0, int), np.empty(0, int))) == 0


# ----------------------------------------------------------------------
# stats accounting under the batched path (satellite: counter bugfix)
# ----------------------------------------------------------------------
def test_stats_count_batched_queries_and_distance_checks():
    sim, world = mixed_world(count=25)
    engine = world.vector_engine(BLUETOOTH)
    world.stats.reset()
    pair_i, pair_j = engine.neighbor_pairs(sim.now)
    members = len(engine.ids)
    assert world.stats.neighbor_queries == members
    # One distance evaluation per unordered candidate pair, every
    # candidate counted whether or not it lands in range.
    assert world.stats.distance_checks == engine.pair_candidates
    assert world.stats.distance_checks >= len(pair_i)
    assert engine.pairs_in_range == len(pair_i)


# ----------------------------------------------------------------------
# batch crossings: bitwise equality with the scalar solver
# ----------------------------------------------------------------------
def test_batch_crossings_bitwise_equal_scalar():
    sim, world = mixed_world(count=36)
    models = [world.node(node_id).mobility for node_id in world.node_ids()]
    pairs = [(models[i], models[j])
             for i in range(len(models)) for j in range(i + 1, len(models))]
    for t0, t1 in ((0.0, 60.0), (12.5, 200.0), (90.0, 90.5)):
        batch = batch_distance_crossings(pairs, BLUETOOTH.range_m, t0, t1)
        for (a, b), crossing in zip(pairs, batch):
            scalar = next_distance_crossing(a, b, BLUETOOTH.range_m, t0, t1)
            if scalar is None:
                assert crossing is None, (a, b, t0, t1)
            else:
                assert crossing is not None
                assert crossing.time == scalar.time  # bitwise, no approx
                assert crossing.inside == scalar.inside


def test_batch_crossings_validation_and_empty_window():
    model = StaticPosition(0.0, 0.0)
    with pytest.raises(ValueError):
        batch_distance_crossings([(model, model)], 0.0, 0.0, 1.0)
    assert batch_distance_crossings(
        [(model, model)], 10.0, 5.0, 5.0) == [None]
    assert batch_distance_crossings([], 10.0, 0.0, 1.0) == []


def test_solver_batch_matches_scalar_through_contact_solver():
    sim, world = mixed_world(count=18)
    ids = world.node_ids()
    pairs = [(ids[i], ids[j])
             for i in range(len(ids)) for j in range(i + 1, len(ids))]
    solver = world.bus.solver
    batch = solver.next_link_crossings_batch(pairs, BLUETOOTH)
    for (a, b), crossing in zip(pairs, batch):
        assert crossing == solver.next_link_crossing(a, b, BLUETOOTH)


def test_watch_links_batch_equals_per_pair_watches():
    """Twin scenarios, twin event streams: batch registration must
    schedule and fire the exact events per-pair registration does."""
    streams = {}
    for mode in ("loop", "batch"):
        sim, world = mixed_world(seed=11, count=16)
        bus = world.bus
        ids = world.node_ids()
        pairs = [(ids[i], ids[j])
                 for i in range(len(ids)) for j in range(i + 1, len(ids))]
        events = []

        def record(event, events=events):
            events.append((round(event.time, 12), event.kind,
                           event.node_a, event.node_b))

        if mode == "loop":
            for a, b in pairs:
                bus.watch_link(a, b, BLUETOOTH, record)
        else:
            bus.watch_links_batch(pairs, BLUETOOTH, record)
        # run(until=...) — repeating watches on waypoint pairs refill
        # the event queue forever, so draining it would never return.
        sim.run(until=150.0)
        streams[mode] = (events, world.stats.bus.fired,
                         world.stats.bus.scheduled)
    assert streams["loop"] == streams["batch"]


# ----------------------------------------------------------------------
# engine input checks
# ----------------------------------------------------------------------
def test_engine_rejects_model_without_pieces():
    class Teleporter(StaticPosition):
        def active_piece(self, t, horizon_s=600.0):
            return None

    sim = Simulator(seed=0)
    world = World(sim)
    world.add_node("a", Teleporter(0.0, 0.0), ["bluetooth"])
    engine = world.vector_engine(BLUETOOTH)
    with pytest.raises(ValueError, match="no linear pieces"):
        engine.positions_at(0.0)


# ----------------------------------------------------------------------
# workload determinism: byte-identical across worker counts
# ----------------------------------------------------------------------
def _vector_spec():
    return ExperimentSpec(
        name="vector_determinism",
        workload="vectorized_neighbors",
        scenarios=("dense_plaza",),
        axes={"count": (60, 90)},
        repeats=2,
        master_seed=23,
        settings={"rounds": 2, "step_s": 15.0},
        description="determinism probe")


def test_vectorized_workload_identical_for_1_and_2_workers(tmp_path):
    spec = _vector_spec()
    paths = {}
    for workers in (1, 2):
        results = run_spec(spec, workers=workers)
        records = [result.record for result in results]
        out = tmp_path / f"w{workers}"
        write_jsonl(records, out / "runs.jsonl")
        write_csv(aggregate(records), out / "summary.csv")
        paths[workers] = out
    assert ((paths[1] / "runs.jsonl").read_bytes()
            == (paths[2] / "runs.jsonl").read_bytes())
    assert ((paths[1] / "summary.csv").read_bytes()
            == (paths[2] / "summary.csv").read_bytes())
    record = json.loads(
        (paths[1] / "runs.jsonl").read_text().splitlines()[0])
    metrics = record["metrics"]
    # Wall-clock stays in the timings side channel; the deterministic
    # profiler event counts land in the record.
    assert "timings" not in metrics
    assert metrics["events_vector_bin"] > 0
    assert metrics["events_vector_solve"] == 1
