"""Lossy-PHY determinism and convergence properties (hypothesis; slow).

The contract under test, end to end:

* the analytic fading curve is monotone: loss never decreases with
  distance, and at any fixed *in-range* distance it never decreases
  with the shadowing sigma;
* the measured per-packet loss rate converges to the analytic curve
  (statistical tolerance, fixed seeds);
* under overlapping concurrent load at one receiver, at most one
  packet survives (capture is exclusive), so the delivered fraction is
  bounded by ``1/n`` — monotone non-increasing in offered load;
* end-to-end delivery under any lossy profile never beats the
  zero-loss world on the same seed (fixed-seed sigma ladders);
* explicit all-zero PHY params are byte-identical to absent params on
  ``dtn_sweep`` and ``fault_sweep`` cells (the no-PHY world); and
* the ``phy_sweep`` campaign is byte-identical at 1 and 2 workers.

These run whole scenario builds (and, for the sweep, whole campaigns)
per example, so they are ``@pytest.mark.slow`` — deselected from
tier-1, reselected by ``make test-all`` and the CI slow job.
"""

import dataclasses
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments.campaign import run_campaign
from repro.experiments.runner import jsonl_line
from repro.experiments.spec import RunPoint
from repro.experiments.specs import get_spec
from repro.experiments.workloads import get_workload
from repro.mobility import StaticPosition
from repro.radio import BLUETOOTH, World
from repro.radio.phy import PhyPlane
from repro.sim import Simulator

pytestmark = pytest.mark.slow

seeds = st.integers(min_value=0, max_value=2**16)
sigmas = st.floats(min_value=0.5, max_value=16.0,
                   allow_nan=False, allow_infinity=False)


def _plane(sigma, seed=1, collisions=False):
    world = World(Simulator(seed=seed))
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(8.0, 0), [BLUETOOTH])
    return world, PhyPlane(world, shadowing_sigma_db=sigma,
                           collisions=collisions)


# ----------------------------------------------------------------------
# the analytic curve
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(sigma=sigmas,
       near=st.floats(min_value=0.5, max_value=20.0),
       far=st.floats(min_value=0.5, max_value=20.0))
def test_analytic_loss_is_monotone_in_distance(sigma, near, far):
    _, plane = _plane(sigma)
    lo, hi = sorted((near, far))
    assert (plane.loss_probability(lo)
            <= plane.loss_probability(hi) + 1e-12)


@settings(max_examples=50, deadline=None)
@given(first=sigmas, second=sigmas,
       distance=st.floats(min_value=0.5, max_value=9.9))
def test_analytic_loss_is_monotone_in_sigma_in_range(first, second,
                                                     distance):
    """At any in-range distance (rssi above the calibrated threshold),
    more shadowing can only raise the per-packet loss probability."""
    lo, hi = sorted((first, second))
    _, narrow = _plane(lo)
    _, wide = _plane(hi, seed=2)
    assert (narrow.loss_probability(distance)
            <= wide.loss_probability(distance) + 1e-12)


@settings(max_examples=8, deadline=None)
@given(seed=seeds, sigma=st.floats(min_value=3.0, max_value=12.0))
def test_measured_loss_converges_to_the_analytic_curve(seed, sigma):
    _, plane = _plane(sigma, seed=seed)
    trials = 1500
    lost = sum(not plane.transmit("a", "b", 200) for _ in range(trials))
    expected = plane.loss_probability(8.0)
    assert 0.0 < expected < 1.0
    assert lost / trials == pytest.approx(expected, abs=0.045)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_measured_loss_rate_rises_with_sigma(seed):
    """The statistical face of the in-range monotonicity: at 8 m the
    empirical loss frequency under sigma 10 exceeds sigma 4 (analytic
    gap ~0.14, far beyond sampling noise at n=1500)."""
    def rate(sigma):
        _, plane = _plane(sigma, seed=seed)
        trials = 1500
        return sum(not plane.transmit("a", "b", 200)
                   for _ in range(trials)) / trials

    assert rate(4.0) < rate(10.0)


# ----------------------------------------------------------------------
# concurrent load
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       gaps=st.lists(st.floats(min_value=1.0, max_value=9.0),
                     min_size=8, max_size=8))
def test_overlapping_load_delivers_at_most_one(n, gaps):
    """However many transmissions overlap at one receiver, capture is
    exclusive: at most one survives, so the delivered fraction is
    bounded by 1/n — monotone non-increasing in offered load."""
    world = World(Simulator(seed=5))
    world.add_node("r", StaticPosition(0, 0), [BLUETOOTH])
    for index in range(n):
        world.add_node(f"s{index}", StaticPosition(gaps[index], 0.1),
                       [BLUETOOTH])
    plane = PhyPlane(world)
    txs = [plane.begin(f"s{index}", "r", 1000,
                       started_at=0.0, ends_at=1.0)
           for index in range(n)]
    delivered = sum(plane.resolve(tx) for tx in txs)
    assert delivered <= 1
    if n == 1:
        assert delivered == 1
    counters = plane.counters
    assert (counters.offered == counters.delivered
            + counters.lost_fading + counters.lost_collision == n)


# ----------------------------------------------------------------------
# end-to-end sigma ladders (fixed seeds, wide gaps)
# ----------------------------------------------------------------------
def test_zero_loss_delivery_dominates_every_lossy_profile():
    """On the same seed, no lossy profile ever delivers *more* than
    the zero-loss world — for either router."""
    base_settings = {"duration_s": 240.0, "messages": 6, "ttl_s": 200.0,
                     "size_bytes": 60_000, "rate_Bps": 24_000.0,
                     "routers": ("epidemic", "spray"),
                     "spray_copies": 6}

    def ratios(sigma, seed):
        params = {"count": 12}
        if sigma:
            params.update(shadowing_sigma_db=sigma, phy_collisions=1)
        point = RunPoint(spec="prop_ladder", workload="dtn_phy",
                         index=0, scenario="crowded_festival",
                         params=params, repeat=0, seed=seed,
                         settings=dict(base_settings))
        metrics = get_workload("dtn_phy")(point)
        return (metrics["epidemic_delivery_ratio"],
                metrics["spray_delivery_ratio"])

    for seed in (101, 303):
        clean = ratios(0.0, seed)
        for sigma in (6.0, 14.0):
            lossy = ratios(sigma, seed)
            assert lossy[0] <= clean[0], (seed, sigma)
            assert lossy[1] <= clean[1], (seed, sigma)


# ----------------------------------------------------------------------
# spec identity and worker independence
# ----------------------------------------------------------------------
def test_explicit_zero_phy_params_match_absent_params():
    """A ``dtn_sweep``/``fault_sweep`` cell with the PHY knobs spelled
    out as zeros must be byte-identical to the same cell without them:
    zero knobs build the literal no-PHY world."""
    cells = (
        ("dtn", "commuter_corridor",
         {"duration_s": 240.0, "messages": 8, "ttl_s": 200.0,
          "routers": ("direct", "epidemic", "spray"),
          "spray_copies": 6}),
        ("dtn_faults", "hostile_corridor",
         {"duration_s": 240.0, "messages": 8, "ttl_s": 200.0,
          "routers": ("direct", "spray"), "spray_copies": 4,
          "pattern": "uniform"}),
    )
    zeros = {"shadowing_sigma_db": 0.0, "phy_collisions": 0}
    for workload, scenario, cell_settings in cells:
        def run(params):
            point = RunPoint(
                spec="prop_phy_zero", workload=workload, index=0,
                scenario=scenario, params=dict(params), repeat=0,
                seed=9898, settings=dict(cell_settings))
            return get_workload(workload)(point)

        absent = run({})
        explicit = run(zeros)
        assert (json.dumps(absent, sort_keys=True)
                == json.dumps(explicit, sort_keys=True)), workload


def test_phy_sweep_is_byte_identical_across_worker_counts(tmp_path):
    spec = dataclasses.replace(get_spec("phy_sweep"), repeats=1)
    lines = {}
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}",
                              workers=workers)
        lines[workers] = [jsonl_line(record) for record in result.records]
    assert lines[1] == lines[2]
    # And the lossy cells genuinely exercised the plane.
    offered = [json.loads(line)["metrics"]["epidemic_phy_offered"]
               for line in lines[1]]
    assert any(count > 0 for count in offered)
