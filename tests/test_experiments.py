"""Tests for the experiment orchestration subsystem.

Covers the registry (every public scenario factory registered and
constructible with defaults), spec validation and expansion (including
the seed-derivation invariants), the runner's determinism property —
the same spec produces byte-identical JSONL and aggregate CSV with
``workers=1`` and ``workers=4`` — the aggregation/report layer, and the
crossing table the legs of a paired DTN cell share.
"""

import inspect
import itertools
import json

import pytest

import repro.scenarios
from repro.experiments import (
    ExperimentSpec,
    aggregate,
    aggregate_csv,
    build_scenario,
    execute_point_outcome,
    get_scenario,
    get_spec,
    read_jsonl,
    run_campaign,
    scenario_names,
    spec_names,
    workload_names,
    write_jsonl,
)
from repro.experiments import workloads
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import FAULT_KNOBS, PHY_KNOBS
from repro.experiments.spec import RunPoint
from repro.radio.contacts import ContactSolver
from repro.scenarios import Scenario
from repro.sim.rng import derive_seed


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_every_public_scenario_factory_is_registered():
    public = set(repro.scenarios.__all__) - {"Scenario"}
    assert public == {get_scenario(name).factory.__name__
                      for name in scenario_names()}


def test_factories_take_no_plane_knobs():
    """Only the registry installs fault/PHY planes, after the factory."""
    for name in scenario_names():
        accepted = inspect.signature(get_scenario(name).factory).parameters
        assert not set(accepted) & set(FAULT_KNOBS + PHY_KNOBS), name


#: Schema params that no bundled spec sweeps, each with the callers
#: that set it through ``build_scenario``.
_PARAM_CALLERS = {
    ("dense_plaza", "area"): ("perf.workloads.plaza_discovery",
                              "the scale_neighbors workload"),
}


def test_every_scenario_param_has_a_caller():
    """A schema param other than ``count`` and the plane knobs stays
    only if a bundled spec sweeps it on that scenario or a named caller
    sets it; any other knob is a module constant of its factory."""
    swept = {(scenario, axis) for spec in map(get_spec, spec_names())
             for scenario in spec.scenarios for axis in spec.axes}
    plane = set(FAULT_KNOBS + PHY_KNOBS)
    knobs = {(name, param.name) for name in scenario_names()
             for param in get_scenario(name).params
             if param.name != "count" and param.name not in plane}
    assert sorted(knobs - swept - set(_PARAM_CALLERS)) == []
    assert set(_PARAM_CALLERS) <= knobs - swept


@pytest.mark.parametrize("name", scenario_names())
def test_registered_scenarios_constructible_with_defaults(name):
    scenario = build_scenario(name, seed=3)
    assert isinstance(scenario, Scenario)
    assert scenario.nodes
    # The segment contract the contact solver predicts every crossing
    # from: contiguous positive-length pieces covering exactly the
    # window, each agreeing with position(t).  The solver abandons a
    # stream at the first flip, so a stream consumed only in part
    # first must leave every later answer unchanged.
    world = scenario.world
    for node_id in world.node_ids()[:40]:
        mobility = world.node(node_id).mobility
        prefix = list(itertools.islice(
            mobility.linear_segments(61.5, 661.5), 2))
        for t0, t1 in ((0.0, 600.0), (137.25, 737.25), (61.5, 661.5)):
            pieces = list(mobility.linear_segments(t0, t1))
            assert pieces[0][0] == t0 and pieces[-1][1] == t1, node_id
            for previous, piece in zip(pieces, pieces[1:]):
                assert previous[1] == piece[0], node_id
            for start, end, (x, y), (vx, vy) in pieces:
                assert end > start, node_id
                for t in (start, (start + end) / 2.0, end):
                    px, py = mobility.position(t)
                    dt = t - start
                    assert abs(x + vx * dt - px) <= 1e-6, (node_id, t)
                    assert abs(y + vy * dt - py) <= 1e-6, (node_id, t)
        full = list(mobility.linear_segments(61.5, 661.5))
        assert prefix == full[:len(prefix)], node_id


def test_registry_rejects_unknown_scenario_and_params():
    with pytest.raises(KeyError, match="unknown scenario"):
        build_scenario("no_such_layout", seed=0)
    with pytest.raises(KeyError, match="no parameter"):
        build_scenario("line_topology", seed=0, params={"bogus": 1})
    with pytest.raises(TypeError, match="expects int"):
        build_scenario("line_topology", seed=0, params={"count": "five"})


def test_registry_rejects_malformed_tuple_elements():
    with pytest.raises(TypeError, match="tuple of str"):
        build_scenario("random_disc", seed=0,
                       params={"technologies": ("bluetooth", 42)})
    with pytest.raises(TypeError, match="tuple of str"):
        ExperimentSpec(
            name="bad", workload="awareness_schemes",
            scenarios=("random_disc",),
            axes={"technologies": (("bluetooth", 42),)})


def test_registry_accepts_json_roundtripped_lists():
    scenario = build_scenario("random_disc", seed=1,
                              params={"count": 3,
                                      "technologies": ["bluetooth"]})
    assert len(scenario.nodes) == 3


def test_schema_defaults_match_declared_types():
    for name in scenario_names():
        for param in get_scenario(name).params:
            param.check(param.default)


# ----------------------------------------------------------------------
# spec expansion and seed derivation
# ----------------------------------------------------------------------
def _tiny_spec(**overrides):
    base = dict(
        name="tiny", workload="awareness_schemes",
        scenarios=("line_topology", "random_disc"),
        axes={"count": (3, 4)}, repeats=2, master_seed=5,
        settings={"settle_s": 40.0})
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validates_up_front():
    with pytest.raises(ValueError, match="repeats"):
        _tiny_spec(repeats=0)
    with pytest.raises(ValueError, match="no scenarios"):
        _tiny_spec(scenarios=())
    with pytest.raises(KeyError, match="no parameter"):
        # fig scenarios have no 'count' parameter: rejected at spec time.
        _tiny_spec(scenarios=("fig_3_6_dynamic_discovery",))
    with pytest.raises(TypeError, match="expects int"):
        _tiny_spec(axes={"count": (3, "many")})


def test_spec_rejects_settings_its_workload_never_reads():
    """A misspelt setting would otherwise run the default silently."""
    with pytest.raises(KeyError) as excinfo:
        ExperimentSpec(name="typo", workload="dtn",
                       scenarios=("island_hopping_ferry",),
                       settings={"capcity_bytes": 5, "ttl_s": 60.0})
    message = str(excinfo.value)
    assert "['capcity_bytes']" in message
    assert "'spray_copies'" in message and "'ttl_s'" in message
    with pytest.raises(KeyError, match="'settle_s'"):
        _tiny_spec(workload="contact_trace")


def test_spec_rejects_duplicate_grid_cells():
    """A repeated scenario or axis value would expand to cells sharing
    one seed and one cache key, so ``aggregate`` would report n=4 for a
    single sample.  Values compare in canonical (cache-key) form."""
    with pytest.raises(ValueError, match="duplicate scenario 'line_topology'"):
        ExperimentSpec(name="d", workload="awareness_schemes",
                       scenarios=("line_topology", "line_topology"))
    with pytest.raises(ValueError, match="duplicate axis 'count' value 3"):
        ExperimentSpec(name="d", workload="awareness_schemes",
                       scenarios=("line_topology",), axes={"count": (3, 3)})
    with pytest.raises(ValueError, match="duplicate axis 'technologies'"):
        ExperimentSpec(name="d", workload="contact_trace",
                       scenarios=("sparse_highway",),
                       axes={"technologies": (("wlan",), ["wlan"])})
    # distinct canonical forms stay distinct cells
    spec = ExperimentSpec(name="d", workload="awareness_schemes",
                          scenarios=("line_topology",),
                          axes={"count": (3, 4)})
    assert len({p.seed for p in spec.expand()}) == spec.size() == 2


def test_expansion_is_the_full_ordered_grid():
    spec = _tiny_spec()
    points = spec.expand()
    assert len(points) == spec.size() == 2 * 2 * 2
    assert [p.index for p in points] == list(range(8))
    # scenario-major, then axis values in declared order, then repeats
    assert [(p.scenario, p.params["count"], p.repeat) for p in points[:4]] \
        == [("line_topology", 3, 0), ("line_topology", 3, 1),
            ("line_topology", 4, 0), ("line_topology", 4, 1)]


def test_seeds_are_label_derived_not_positional():
    """Adding axis values must not perturb pre-existing cells' seeds."""
    small = _tiny_spec()
    grown = _tiny_spec(axes={"count": (2, 3, 4)})
    small_seeds = {p.label(): p.seed for p in small.expand()}
    grown_seeds = {p.label(): p.seed for p in grown.expand()}
    for label, seed in small_seeds.items():
        assert grown_seeds[label] == seed
    for point in small.expand():
        assert point.seed == derive_seed(small.master_seed, point.label())


def test_distinct_cells_get_distinct_seeds():
    seeds = [p.seed for p in _tiny_spec().expand()]
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# runner determinism: 1 worker vs 4 workers, byte-identical output
# ----------------------------------------------------------------------
def test_runner_output_identical_for_1_and_4_workers(tmp_path):
    spec = _tiny_spec()
    paths = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        result = run_campaign(spec, out, workers=workers)
        assert result.stats.executed == spec.size()
        paths[workers] = out
    jsonl_1 = (paths[1] / "runs.jsonl").read_bytes()
    jsonl_4 = (paths[4] / "runs.jsonl").read_bytes()
    assert jsonl_1 == jsonl_4
    csv_1 = (paths[1] / "summary.csv").read_bytes()
    csv_4 = (paths[4] / "summary.csv").read_bytes()
    assert csv_1 == csv_4
    assert len(jsonl_1.splitlines()) == spec.size()


def test_execute_point_record_shape_and_timings_split():
    point = _tiny_spec().expand()[0]
    outcome = execute_point_outcome(point.as_dict())
    assert outcome["ok"] is True
    record, timings = outcome["record"], outcome["timings"]
    telemetry_rows = outcome["telemetry"]
    assert record["scenario"] == "line_topology"
    assert record["seed"] == point.seed
    assert "timings" not in record["metrics"]
    assert timings["wall_s"] >= 0.0
    assert telemetry_rows == []   # telemetry is opt-in
    assert 0.0 <= record["metrics"]["dynamic_measured"] <= 1.0
    json.dumps(record)   # must be JSON-safe


def test_execute_point_rejects_a_setting_its_workload_never_reads():
    """A directly built point skips the spec's settings check, so the
    runner checks again: a misspelt setting fails the cell instead of
    running the default silently."""
    point = RunPoint(spec="typo", workload="line_delay", index=0,
                     scenario="line_topology", params={"count": 2},
                     repeat=0, seed=1,
                     settings={"settle_s": 20.0, "setle_s": 5})
    outcome = execute_point_outcome(point.as_dict())
    assert outcome["ok"] is False
    assert outcome["error_type"] == "KeyError"
    assert "setle_s" in outcome["error"]


def test_jsonl_roundtrip(tmp_path):
    records = [{"run": 0, "metrics": {"x": 1.5}},
               {"run": 1, "metrics": {"x": None}}]
    path = write_jsonl(records, tmp_path / "r.jsonl")
    assert read_jsonl(path) == records


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _record(scenario, params, repeat, **metrics):
    return {"scenario": scenario, "params": params, "repeat": repeat,
            "metrics": metrics}


def test_aggregate_folds_repeats_into_summary_rows():
    records = [_record("s", {"count": 2}, r, latency=float(r))
               for r in range(4)]
    [row] = aggregate(records)
    assert row.runs == 4
    summary = row.metrics["latency"]
    assert summary.count == 4
    assert summary.mean == 1.5
    assert summary.ci95 > 0.0


def test_aggregate_separates_configurations_and_sorts():
    records = [_record("s", {"count": 4}, 0, m=1.0),
               _record("s", {"count": 2}, 0, m=2.0),
               _record("a", {"count": 2}, 0, m=3.0)]
    rows = aggregate(records)
    assert [(r.scenario, r.params_json) for r in rows] == [
        ("a", '{"count":2}'), ("s", '{"count":2}'), ("s", '{"count":4}')]


def test_aggregate_skips_none_and_drops_all_none_metrics():
    records = [_record("s", {}, 0, delay=None, hits=1),
               _record("s", {}, 1, delay=4.0, hits=0)]
    [row] = aggregate(records)
    assert row.metrics["delay"].count == 1
    assert row.metrics["delay"].mean == 4.0
    assert row.metrics["hits"].count == 2


def test_aggregate_tolerates_mixed_specs_with_disjoint_metrics():
    """A runs.jsonl concatenated from two specs must aggregate cleanly.

    DTN runs emit delivery metrics that discovery runs lack, and both
    may name the same scenario + params: rows must split by workload,
    each metric folding only the records that observed it.
    """
    discovery = [{"workload": "discovery", "scenario": "random_disc",
                  "params": {}, "repeat": r,
                  "metrics": {"awareness_mean": 0.5, "digest": "abc"}}
                 for r in range(2)]
    dtn = [{"workload": "dtn", "scenario": "random_disc",
            "params": {}, "repeat": r,
            "metrics": {"epidemic_delivery_ratio": 0.75 + r * 0.1,
                        "epidemic_latency_mean": None}}
           for r in range(2)]
    rows = aggregate(discovery + dtn)
    assert len(rows) == 2
    by_workload = {row.workload: row for row in rows}
    assert by_workload["discovery"].runs == 2
    assert by_workload["discovery"].metrics["awareness_mean"].count == 2
    assert "epidemic_delivery_ratio" not in \
        by_workload["discovery"].metrics
    assert by_workload["dtn"].metrics[
        "epidemic_delivery_ratio"].count == 2
    # observed only as None: dropped, not crashed on
    assert "epidemic_latency_mean" not in by_workload["dtn"].metrics
    # both renderers handle the mixed rows and carry the workload
    text = aggregate_csv(rows)
    assert ",discovery" in text and ",dtn" in text
    from repro.experiments.report import aggregate_table
    assert "workload" in aggregate_table("mixed", rows)


def test_aggregate_handles_partial_metric_schemas_within_a_group():
    """Rows of one group may individually lack metrics (old files)."""
    records = [_record("s", {}, 0, shared=1.0, only_first=5.0),
               _record("s", {}, 1, shared=2.0)]
    [row] = aggregate(records)
    assert row.runs == 2
    assert row.metrics["shared"].count == 2
    assert row.metrics["only_first"].count == 1


def test_aggregate_csv_has_header_and_all_metric_rows():
    records = [_record("s", {"count": 2}, r, a=1.0, b=2.0)
               for r in range(2)]
    text = aggregate_csv(aggregate(records))
    lines = text.strip().split("\n")
    assert lines[0].startswith("scenario,params,metric")
    assert len(lines) == 1 + 2    # one per metric


# ----------------------------------------------------------------------
# bundled specs and CLI
# ----------------------------------------------------------------------
def test_bundled_specs_expand_and_reference_known_workloads():
    assert "demo_sweep" in spec_names()
    for name in spec_names():
        spec = get_spec(name)
        assert spec.workload in workload_names()
        points = spec.expand()
        assert len(points) == spec.size()


def test_demo_sweep_meets_grid_floor():
    spec = get_spec("demo_sweep")
    assert len(spec.scenarios) >= 2
    assert len(spec.axes["count"]) >= 2
    assert spec.repeats >= 3
    assert spec.size() >= 24


def test_cli_list_and_report_roundtrip(tmp_path, capsys):
    assert cli_main(["list"]) == 0
    assert "demo_sweep" in capsys.readouterr().out
    # report on an existing result directory (no re-run)
    records = run_campaign(_tiny_spec(axes={"count": (3,)}, repeats=1),
                           tmp_path / "run").records
    out = tmp_path / "tiny"
    write_jsonl(records, out / "runs.jsonl")
    assert cli_main(["report", "tiny", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "dynamic_measured" in captured
    assert (out / "summary.csv").exists()


def test_cli_report_missing_results_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "never_ran"
    assert cli_main(["report", "demo_sweep", "--out", str(missing)]) == 1
    assert "no results" in capsys.readouterr().err


def test_cli_run_rejects_zero_workers_before_running(tmp_path, capsys):
    out = tmp_path / "never_ran"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "delay_sweep", "--workers", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# paired DTN legs share one crossing table per cell
# ----------------------------------------------------------------------
#: The bundled spec of each paired-DTN preset.
_PAIRED_SPECS = ("dtn_sweep", "fault_sweep", "bandwidth_sweep", "phy_sweep")


class _NeverHit(dict):
    """A crossing table that records every answer and serves none."""

    def __contains__(self, key):
        return False


def _defeat_the_crossing_table(monkeypatch):
    """Every leg solves every question: the table a cell hands its legs
    is swapped for one that never hits."""
    def handed(self, table):
        self.__dict__["_table"] = None if table is None else _NeverHit()

    monkeypatch.setattr(ContactSolver, "crossings", property(
        lambda self: self.__dict__["_table"], handed), raising=False)


def _run_legs(monkeypatch, point):
    """The point's metrics, and the solves each leg's world made."""
    worlds = []

    def spy(*args, **kwargs):
        scenario = build_scenario(*args, **kwargs)
        worlds.append(scenario.world)
        return scenario

    with monkeypatch.context() as patch:
        patch.setattr(workloads, "build_scenario", spy)
        metrics = workloads.get_workload(point.workload)(point)
    return metrics, [world.contacts.predictions for world in worlds]


@pytest.mark.parametrize("name", _PAIRED_SPECS)
def test_the_crossing_table_changes_no_paired_metric(name, monkeypatch):
    point = get_spec(name).expand()[0]
    shared, solves = _run_legs(monkeypatch, point)
    assert solves[0] > 0 and solves[1:] == [0] * (len(solves) - 1)
    _defeat_the_crossing_table(monkeypatch)
    alone, defeated = _run_legs(monkeypatch, point)
    assert json.dumps(shared, sort_keys=True) == json.dumps(
        alone, sort_keys=True)
    # The table also answers a leg's own repeats the one-slot memo
    # misses, so even the first leg may solve less with it.
    assert defeated[0] >= solves[0]
    assert all(count > 0 for count in defeated[1:])  # non-vacuous


@pytest.mark.parametrize("name", [
    "dtn_sweep", "fault_sweep", "bandwidth_sweep",
    pytest.param("phy_sweep", marks=pytest.mark.slow),   # ~2.5 s
])
def test_legs_after_the_first_solve_nothing(name, monkeypatch):
    """In every cell of a bundled paired spec, the first leg asks every
    contact question the later legs ask."""
    for point in get_spec(name).expand():
        _metrics, solves = _run_legs(monkeypatch, point)
        assert solves[0] > 0
        assert solves[1:] == [0] * (len(solves) - 1), point.index


def test_no_crossing_table_outlives_its_cell(monkeypatch):
    """Two repeats of one cell share node names, not paths: a table
    that leaked from one into the other would serve it wrong answers
    (every pair's first question is asked at t = 0)."""
    first, other = get_spec("fault_sweep").expand()[:2]
    assert first.scenario == other.scenario and first.seed != other.seed
    back_to_back = [_run_legs(monkeypatch, point) for point in (first, other)]
    assert all(solves[0] > 0 for _metrics, solves in back_to_back)
    _defeat_the_crossing_table(monkeypatch)
    standalone = [_run_legs(monkeypatch, point)[0] for point in (first, other)]
    assert [metrics for metrics, _solves in back_to_back] == standalone
    assert Scenario(seed=1).world.contacts.crossings is None
