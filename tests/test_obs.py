"""Tests for the telemetry plane (:mod:`repro.obs`).

The load-bearing property is the **non-perturbation contract**: a run
with a recorder attached produces byte-identical recorded metrics —
including the kernel-wakeup counts every benchmark gates on — to the
same run without one.  The recorder samples on observer events
(excluded from ``events_processed``), taps the bus and trace passively,
and never draws from any RNG stream.

Also covered: sample-row schema, contact/bundle/fault spans, the
subsystem profiler's deterministic event counts, the runner integration
(``telemetry=True``) and 1-vs-2-worker byte-identity of
``telemetry.jsonl``.
"""

import json

import pytest

from repro.dtn import BandwidthDtnOverlay, DtnOverlay, make_router
from repro.experiments import ExperimentSpec, run_campaign
from repro.experiments.runner import execute_point_outcome, write_telemetry
from repro.faults import FaultPlane
from repro.mobility.linear import LinearMovement
from repro.obs import (
    SAMPLE_INTERVAL_S,
    Span,
    SubsystemProfiler,
    Telemetry,
    TelemetryContext,
    TIMELINE_FIELDS,
    activate,
    active,
    deactivate,
    subsystem_label,
)
from repro.scenarios import Scenario
from repro.sim.kernel import Simulator


def _relay_world(seed=4):
    """Static src and dst 60 m apart; a mule drives past both."""
    scenario = Scenario(seed=seed)
    scenario.add_node("src", position=(0, 0), mobility_class="static")
    scenario.add_node("dst", position=(60, 0), mobility_class="static")
    scenario.add_node("mule",
                      mobility=LinearMovement((0.0, 5.0), (1.0, 0.0)))
    return scenario


def _run_relay(telemetry=None, seed=4, overlay=DtnOverlay):
    scenario = _relay_world(seed=seed)
    if telemetry is not None:
        telemetry.attach(scenario.world, trace=scenario.trace,
                         meter=scenario.meter)
    plane = overlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=200.0)
    return scenario, plane


def spans_of(telemetry, kind):
    return [span for span in telemetry.spans if span.kind == kind]


# ----------------------------------------------------------------------
# subsystem labels + profiler
# ----------------------------------------------------------------------
def test_subsystem_label_strips_instance_suffixes():
    assert subsystem_label("bus#12:link-up") == "bus"
    assert subsystem_label("dtn-contact#3") == "dtn-contact"
    assert subsystem_label("timeout(5.0)") == "timeout"
    assert subsystem_label("plain") == "plain"
    assert subsystem_label("") == "anonymous"
    assert subsystem_label("#weird") == "anonymous"


def test_profiler_buckets_event_counts():
    profiler = SubsystemProfiler()
    profiler.count("bus#1:link-up")
    profiler.count("bus#2:link-down")
    profiler.count("telemetry-sample", observer=True)
    assert profiler.count_rows() == {"bus": 2, "telemetry": 1}


def test_profiler_attributes_even_when_callback_raises():
    sim = Simulator()
    sim.profiler = SubsystemProfiler()

    def boom():
        raise RuntimeError("x")

    sim.call_at(1.0, boom, name="boom#1")
    with pytest.raises(RuntimeError):
        sim.run(until=None)
    assert sim.profiler.count_rows() == {"boom": 1}


# ----------------------------------------------------------------------
# kernel observer events
# ----------------------------------------------------------------------
def test_observer_events_excluded_from_events_processed():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: fired.append("real"), name="real")
    sim.call_at(2.0, lambda: fired.append("obs"), name="obs",
                observer=True)
    assert sim.pending_real_events() == 1
    sim.run(until=None)
    assert fired == ["real", "obs"]
    assert sim.events_processed == 1          # the observer never counted
    assert sim.pending_real_events() == 0


def test_self_rescheduling_sampler_does_not_block_run_to_completion():
    scenario = Scenario(seed=1)
    scenario.add_node("a", position=(0, 0), mobility_class="static")
    scenario.add_node("b", position=(5, 0), mobility_class="static")
    telemetry = Telemetry()
    telemetry.attach(scenario.world, trace=scenario.trace)
    fired = []
    scenario.sim.call_at(35.0, lambda: fired.append(True), name="work")
    scenario.run(until=None)     # must terminate despite the sampler
    assert fired == [True]
    assert scenario.sim.pending_real_events() == 0
    # The sampler stood down once only observer events remained: it did
    # not tick the clock past the last real event plus one interval.
    assert scenario.sim.now <= 35.0 + SAMPLE_INTERVAL_S


# ----------------------------------------------------------------------
# recorder lifecycle + sample rows
# ----------------------------------------------------------------------
def test_attach_twice_refused():
    scenario = _relay_world()
    telemetry = Telemetry()
    telemetry.attach(scenario.world)
    with pytest.raises(RuntimeError, match="attached"):
        telemetry.attach(scenario.world)
    telemetry.detach()
    telemetry.detach()           # idempotent


def test_sample_rows_have_the_fixed_timeline_schema():
    telemetry = Telemetry(label="leg0")
    _run_relay(telemetry)
    telemetry.finalize()
    samples = [row for row in telemetry.records()
               if row["type"] == "sample"]
    assert len(samples) >= 3                   # attach + periodic + final
    times = [row["t"] for row in samples]
    assert times == sorted(times)
    for row in samples:
        assert row["type"] == "sample"
        assert row["leg"] == "leg0"
        assert set(row) == {"type", "leg"} | set(TIMELINE_FIELDS)
    # Counters are cumulative, so every column is monotone.
    for field in ("kernel_events", "bus_fired", "dtn_created"):
        column = [row[field] for row in samples]
        assert column == sorted(column)
    # The DTN plane registered itself: the bundle shows up.
    assert samples[-1]["dtn_created"] == 1
    assert samples[-1]["dtn_delivered"] == 1


def test_records_order_samples_then_spans_then_profile():
    telemetry = Telemetry(label="leg0")
    _run_relay(telemetry)
    telemetry.finalize()
    rows = telemetry.records()
    kinds = [row["type"] for row in rows]
    assert kinds == (["sample"] * kinds.count("sample")
                     + ["span"] * kinds.count("span")
                     + ["profile"])
    profile = rows[-1]
    assert profile["event_counts"]            # non-empty, deterministic
    json.dumps(rows)                          # JSON-safe throughout
    # No wall-clock value ever enters the records.
    assert not any("wall" in key for row in rows for key in row)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("overlay", [DtnOverlay, BandwidthDtnOverlay],
                         ids=lambda overlay: overlay.__name__)
def test_contact_and_bundle_spans_from_a_relay_run(overlay):
    """Both DTN planes record the same journey: one hop where custody
    moves (the bandwidth plane's at the end of each leg)."""
    telemetry = Telemetry()
    _, plane = _run_relay(telemetry, overlay=overlay)
    contacts = spans_of(telemetry, "contact")
    # src|mule are in range at t=0 — no crossing, no span.  The mule's
    # drive past dst is a genuine link-up/link-down window.
    [window] = [span for span in contacts if span.status == "closed"]
    assert window.key == "dst|mule|bluetooth"
    assert window.closed_at > window.opened_at
    bundles = spans_of(telemetry, "bundle")
    assert len(bundles) == 1
    journey = bundles[0]
    assert journey.status == "delivered"
    assert journey.detail["source"] == "src"
    assert journey.detail["destination"] == "dst"
    hops = journey.detail["hops"]
    assert [(h[1], h[2]) for h in hops] == [("src", "mule"),
                                            ("mule", "dst")]
    assert len(hops) == plane.counters.transmissions
    assert journey.detail["final_custodian"] == "mule"   # delivering hop


def test_bundle_drop_span_closes_only_on_terminal_loss():
    scenario = _relay_world()
    telemetry = Telemetry()
    telemetry.attach(scenario.world, trace=scenario.trace)
    faults = FaultPlane(scenario.world)
    plane = DtnOverlay(scenario.world, make_router("epidemic"))
    plane.send("src", "dst", ttl_s=500.0)
    scenario.run(until=20.0)      # mule has the copy, src still does too
    faults.crash_now("mule")      # one copy lost, src's copy survives
    [journey] = spans_of(telemetry, "bundle")
    assert journey.status == "open"
    faults.crash_now("src")       # last living copy gone
    assert journey.status == "dropped"
    assert journey.detail["reason"] == "custodian-crashed"


def test_fault_span_hooks():
    scenario = _relay_world()
    telemetry = Telemetry()
    telemetry.attach(scenario.world)
    telemetry.fault_down("src", "crash")
    telemetry.fault_down("src", "crash")      # duplicate down: one span
    telemetry.fault_up("src")
    telemetry.fault_up("src")                 # duplicate up: no-op
    [outage] = spans_of(telemetry, "fault")
    assert outage.status == "recovered"
    assert outage.detail["fault_kind"] == "crash"


def test_span_close_is_idempotent():
    span = Span(kind="contact", key="a|b|bt", opened_at=1.0)
    span.close(2.0, "closed", bytes_used=5)
    span.close(9.0, "other", bytes_used=99)
    assert span.closed_at == 2.0
    assert span.status == "closed"
    assert span.detail == {"bytes_used": 5}
    record = span.as_record("leg1")
    assert record["type"] == "span"
    assert record["leg"] == "leg1"


# ----------------------------------------------------------------------
# the non-perturbation contract
# ----------------------------------------------------------------------
def test_recorder_never_changes_recorded_metrics():
    bare_scenario, bare_plane = _run_relay(None)
    telemetry = Telemetry()
    obs_scenario, obs_plane = _run_relay(telemetry)
    # Same wakeup counts (the benchmark gate figures), same counters,
    # same deliveries, same bus stats, same trace.
    assert (obs_scenario.sim.events_processed
            == bare_scenario.sim.events_processed)
    assert obs_plane.counters.as_dict() == bare_plane.counters.as_dict()
    assert obs_plane.wakeups == bare_plane.wakeups
    assert sorted(obs_plane.delivered) == sorted(bare_plane.delivered)
    assert (obs_scenario.world.stats.bus.as_dict()
            == bare_scenario.world.stats.bus.as_dict())
    assert ([repr(e) for e in obs_scenario.trace]
            == [repr(e) for e in bare_scenario.trace])


# ----------------------------------------------------------------------
# runner integration
# ----------------------------------------------------------------------
def _tiny_spec():
    return ExperimentSpec(
        name="tiny_obs", workload="awareness_schemes",
        scenarios=("line_topology",),
        axes={"count": (3,)}, repeats=2, master_seed=5,
        settings={"settle_s": 40.0})


def test_execute_point_with_telemetry_keeps_records_identical():
    point = _tiny_spec().expand()[0].as_dict()
    off = execute_point_outcome(point)
    on = execute_point_outcome(point, telemetry=True)
    record_off, rows_off = off["record"], off["telemetry"]
    record_on, timings_on, rows_on = (on["record"], on["timings"],
                                      on["telemetry"])
    assert record_on == record_off            # the contract, end to end
    assert rows_off == []
    assert rows_on
    assert all(row["run"] == record_on["run"] for row in rows_on)
    assert active() is None                   # context cleaned up
    # Telemetry adds nothing to the timings side channel.
    assert set(timings_on) == set(off["timings"]) == {"wall_s"}


def test_telemetry_jsonl_byte_identical_at_1_vs_2_workers(tmp_path):
    spec = _tiny_spec()
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        result = run_campaign(spec, out, workers=workers, telemetry=True)
        jsonl_path, csv_path = write_telemetry(result.results, out)
        outputs[workers] = (jsonl_path.read_bytes(),
                            csv_path.read_bytes())
    assert outputs[1][0] == outputs[2][0]     # telemetry.jsonl
    assert outputs[1][1] == outputs[2][1]     # timeline.csv
    assert outputs[1][0]                      # and they are non-empty


def test_context_adopts_every_scenario_built_while_active():
    context = activate(TelemetryContext())
    try:
        with pytest.raises(RuntimeError, match="already active"):
            activate(TelemetryContext())
        first = _relay_world()
        second = _relay_world()
        assert first.world.telemetry is context.telemetries[0]
        assert second.world.telemetry is context.telemetries[1]
        assert [t.label for t in context.telemetries] == ["leg0", "leg1"]
    finally:
        deactivate()
    rows = context.collect()
    assert {row["leg"] for row in rows} == {"leg0", "leg1"}
    # Recorders detached at collect: worlds no longer reference them.
    assert first.world.telemetry is None
    assert second.world.telemetry is None
    # And with no context active, new scenarios stay recorder-free.
    assert _relay_world().world.telemetry is None
