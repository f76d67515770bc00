"""Tests for the experiment orchestration subsystem.

Covers the registry (every public scenario factory registered and
constructible with defaults), spec validation and expansion (including
the seed-derivation invariants), the runner's determinism property —
the same spec produces byte-identical JSONL and aggregate CSV with
``workers=1`` and ``workers=4`` — and the aggregation/report layer.
"""

import inspect
import itertools
import json
import pathlib

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
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import FAULT_KNOBS, PHY_KNOBS
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


@pytest.mark.parametrize("name", scenario_names())
def test_registered_scenarios_constructible_with_defaults(name):
    scenario = build_scenario(name, seed=3)
    assert isinstance(scenario, Scenario)
    # flash_crowd populates via its churn process; replay_arena is the
    # intentionally empty world contact traces replay under.
    assert scenario.nodes or name in ("flash_crowd", "replay_arena")
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
            name="bad", workload="discovery", scenarios=("random_disc",),
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
        name="tiny", workload="discovery",
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


def test_spec_rejects_duplicate_grid_cells():
    """A repeated scenario or axis value would expand to cells sharing
    one seed and one cache key, so ``aggregate`` would report n=4 for a
    single sample.  Values compare in canonical (cache-key) form."""
    with pytest.raises(ValueError, match="duplicate scenario 'line_topology'"):
        ExperimentSpec(name="d", workload="discovery",
                       scenarios=("line_topology", "line_topology"))
    with pytest.raises(ValueError, match="duplicate axis 'count' value 3"):
        ExperimentSpec(name="d", workload="discovery",
                       scenarios=("line_topology",), axes={"count": (3, 3)})
    with pytest.raises(ValueError, match="duplicate axis 'technologies'"):
        ExperimentSpec(name="d", workload="contact_trace",
                       scenarios=("sparse_highway",),
                       axes={"technologies": (("wlan",), ["wlan"])})
    # distinct canonical forms stay distinct cells
    spec = ExperimentSpec(name="d", workload="discovery",
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
    assert 0.0 <= record["metrics"]["awareness_mean"] <= 1.0
    json.dumps(record)   # must be JSON-safe


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
    may name the same scenario + params (the ``replay_arena`` case):
    rows must split by workload, each metric folding only the records
    that observed it.
    """
    discovery = [{"workload": "discovery", "scenario": "replay_arena",
                  "params": {}, "repeat": r,
                  "metrics": {"awareness_mean": 0.5, "digest": "abc"}}
                 for r in range(2)]
    dtn = [{"workload": "dtn", "scenario": "replay_arena",
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
    assert "awareness_mean" in captured
    assert (out / "summary.csv").exists()


def test_cli_report_missing_results_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "never_ran"
    assert cli_main(["report", "demo_sweep", "--out", str(missing)]) == 1
    assert "no results" in capsys.readouterr().err
