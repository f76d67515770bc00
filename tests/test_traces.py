"""Contact-trace recording and mobility-free replay."""

import dataclasses

import pytest

from repro.dtn import DtnOverlay, make_router
from repro.experiments import (
    ExperimentSpec,
    aggregate,
    get_spec,
    run_campaign,
)
from repro.radio import bus
from repro.radio.technologies import WLAN
from repro.scenarios import (
    ContactTraceRecorder,
    load_trace,
    record_contact_trace,
    replay_trace,
    sparse_highway,
    trace_digest,
    write_trace,
)


def record_highway(count=10, seed=4, until=120.0, path=None):
    scenario = sparse_highway(count=count, seed=seed)
    rows = record_contact_trace(scenario, WLAN, until=until, path=path)
    return scenario, rows


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def test_recorded_trace_is_time_ordered_and_alternates_per_pair():
    scenario, rows = record_highway()
    assert rows, "highway produced no contacts"
    times = [row["t"] for row in rows]
    assert times == sorted(times)
    per_pair: dict = {}
    for row in rows:
        pair = (row["a"], row["b"])
        assert row["a"] < row["b"]
        previous = per_pair.get(pair)
        assert row["kind"] != previous, f"non-alternating stream for {pair}"
        per_pair[pair] = row["kind"]
    # Self-containment: every pair's stream opens with a link-up (pairs
    # in contact at t0 get a synthetic opening edge).
    first_kind: dict = {}
    for row in rows:
        first_kind.setdefault((row["a"], row["b"]), row["kind"])
    assert set(first_kind.values()) == {"link-up"}


def test_recording_is_deterministic_across_runs():
    _, first = record_highway()
    _, second = record_highway()
    assert first == second
    assert trace_digest(first) == trace_digest(second)


@pytest.mark.parametrize("attach", [
    pytest.param(lambda scenario: ContactTraceRecorder(scenario, WLAN),
                 id="recorder"),
    pytest.param(lambda scenario: DtnOverlay(
        scenario.world, make_router("epidemic"), tech=WLAN), id="overlay"),
])
def test_recorder_requires_pair_budget(attach, monkeypatch):
    """Every contact-stream consumer is held by the one pair budget."""
    scenario = sparse_highway(count=10, seed=1)   # 45 pairs
    monkeypatch.setattr(bus, "MAX_PAIRS", 44)
    with pytest.raises(ValueError, match="MAX_PAIRS=44"):
        attach(scenario)
    assert scenario.world.bus.active_watches() == 0
    monkeypatch.setattr(bus, "MAX_PAIRS", 45)
    attach(scenario)
    assert scenario.world.bus.active_watches() == 45


def test_recording_costs_no_polling_wakeups():
    """Kernel events during recording ~ crossings, not N x duration."""
    scenario = sparse_highway(count=10, seed=4)
    before = scenario.sim.events_processed
    rows = record_contact_trace(scenario, WLAN, until=120.0)
    consumed = scenario.sim.events_processed - before
    # A poller at 1 Hz would need 10 * 120 = 1200 wakeups minimum.
    assert consumed < 10 * 120
    # Synthetic opening edges for contacts underway at t0 cost nothing.
    initial = sum(1 for row in rows if row["t"] == 0.0)
    assert consumed >= len(rows) - initial


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def test_replay_reemits_stream_byte_identically(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    _, rows = record_highway(path=trace_path)
    result = replay_trace(load_trace(trace_path))
    assert result.rows == rows
    assert result.digest() == trace_digest(rows)
    replay_path = tmp_path / "replayed.jsonl"
    write_trace(result.rows, replay_path)
    assert replay_path.read_bytes() == trace_path.read_bytes()


def test_replay_delivers_events_in_order_at_recorded_times():
    _, rows = record_highway(count=8)
    seen = []
    result = replay_trace(rows, on_event=lambda e: seen.append(e))
    assert [e.time for e in seen] == [row["t"] for row in rows]
    assert result.final_time == rows[-1]["t"]


# ----------------------------------------------------------------------
# through the experiments runner (the acceptance assertion)
# ----------------------------------------------------------------------
def test_trace_replays_byte_identically_through_runner(tmp_path):
    trace_path = tmp_path / "recorded.jsonl"
    replay_path = tmp_path / "replayed.jsonl"
    _, rows = record_highway(path=trace_path)

    spec = ExperimentSpec(
        name="replay_gate", workload="trace_replay",
        scenarios=("replay_arena",),
        settings={"trace_path": str(trace_path),
                  "out_path": str(replay_path)})
    records = run_campaign(spec, tmp_path / "campaign").records
    metrics = records[0]["metrics"]
    assert metrics["events"] == len(rows)
    assert metrics["digest"] == trace_digest(rows)
    assert replay_path.read_bytes() == trace_path.read_bytes()


def test_contact_trace_workload_runs_through_bundled_spec(tmp_path):
    spec = get_spec("contact_sweep")
    small = dataclasses.replace(
        spec, name="contact_smoke", scenarios=("sparse_highway",),
        axes={"count": (8,), "technologies": (("wlan",),)}, repeats=1,
        settings={"duration_s": 60.0, "tech": "wlan"})
    records = run_campaign(small, tmp_path / "campaign").records
    metrics = records[0]["metrics"]
    assert metrics["nodes"] == 8
    assert metrics["events"] == metrics["link_ups"] + metrics["link_downs"]
    # Synthetic opening edges aren't bus firings; everything else is.
    assert 0 < metrics["bus_fired"] <= metrics["events"]
    assert len(metrics["digest"]) == 64
    # The report layer treats the digest as identity, not sample data.
    rows = aggregate(records)
    assert "digest" not in rows[0].metrics
    assert rows[0].metrics["events"].count == 1
