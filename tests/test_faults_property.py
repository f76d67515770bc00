"""Fault-plane determinism properties (hypothesis; the slow tier).

The contract under test, end to end:

* a fault schedule is a pure function of ``(seed, parameters)`` —
  byte-identical across rebuilds;
* fault models draw only from their own labelled RNG sub-streams, so
  installing faults never perturbs mobility (or any other draw);
* zero-rate fault parameters run the literal fault-free code path, so
  the ``dtn_faults`` workload degenerates to the ``dtn`` workload; and
* the ``fault_sweep`` campaign is byte-identical at 1 and 2 workers.

These run whole scenario builds (and, for the sweep, whole campaigns)
per example, so they are ``@pytest.mark.slow`` — deselected from
tier-1, reselected by ``make test-all`` and the CI slow job.
"""

import dataclasses
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments.registry import build_scenario
from repro.experiments.campaign import run_campaign
from repro.experiments.runner import jsonl_line
from repro.experiments.spec import RunPoint
from repro.experiments.specs import get_spec
from repro.experiments.workloads import get_workload
from repro.scenarios import commuter_corridor

pytestmark = pytest.mark.slow

seeds = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_same_seed_builds_the_same_fault_schedule(seed):
    first = build_scenario("hostile_corridor", seed).world.faults
    second = build_scenario("hostile_corridor", seed).world.faults
    assert first.schedule == second.schedule
    assert [e.sort_key() for e in first.schedule] == sorted(
        e.sort_key() for e in first.schedule)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_fault_streams_never_perturb_mobility(seed):
    """Cranking every fault rate must not move a single commuter:
    fault models draw from ``faults/*`` sub-streams only."""
    clean = commuter_corridor(seed=seed)
    faulted = build_scenario("commuter_corridor", seed, {
        "crash_rate": 0.9, "radio_fault_rate": 0.7, "byzantine_rate": 0.5,
        "jammer_count": 2})
    clean.run(until=200.0)
    faulted.run(until=200.0)
    for name in sorted(clean.nodes):
        assert (clean.world.position(name)
                == faulted.world.position(name)), name


def test_zero_rate_workload_degenerates_to_the_fault_free_one():
    """Shared metric keys of ``dtn_faults`` at all-zero rates must be
    byte-identical to ``dtn`` on the same scenario, seed and settings."""
    settings_dict = {
        "duration_s": 240.0, "messages": 8, "ttl_s": 200.0,
        "routers": ("direct", "spray"), "spray_copies": 4,
        "pattern": "uniform",
    }

    def run(workload):
        point = RunPoint(
            spec="prop_zero_rate", workload=workload, index=0,
            scenario="commuter_corridor", params={}, repeat=0,
            seed=4242, settings=dict(settings_dict))
        return get_workload(workload)(point)

    plain = run("dtn")
    faulted = run("dtn_faults")
    shared = sorted(set(plain) & set(faulted))
    assert shared                                 # non-vacuous diff
    assert (json.dumps({k: plain[k] for k in shared}, sort_keys=True)
            == json.dumps({k: faulted[k] for k in shared},
                          sort_keys=True))
    assert faulted["fault_events"] == 0


def test_fault_sweep_is_byte_identical_across_worker_counts(tmp_path):
    spec = dataclasses.replace(get_spec("fault_sweep"), repeats=1)
    lines = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}",
                              workers=workers)
        lines[workers] = [jsonl_line(record) for record in result.records]
    assert lines[1] == lines[2]
    # And the runs genuinely exercised the fault plane.
    faulted = [json.loads(line)["metrics"]["fault_events"]
               for line in lines[1]]
    assert any(count > 0 for count in faulted)
