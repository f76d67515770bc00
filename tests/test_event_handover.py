"""Event-driven state-1 monitoring vs the polling oracle.

The acceptance criterion: identical handover decisions on the bundled
handover specs at the same seeds, with far fewer monitor wakeups.
"""

import dataclasses

import pytest

from repro.core.config import HandoverConfig
from repro.experiments import get_spec, run_campaign

#: Metric keys that constitute the *decision*; ``monitor_wakeups`` is
#: intentionally different between modes, ``duration_s`` is compared
#: with a float tolerance below.
DECISION_KEYS = ("route_found", "fired", "lows_before", "delivered",
                 "reestablished")


def run_handover_spec(tmp_path, event_driven: bool, repeats: int = 6):
    # Per-run seeds derive from (master_seed, spec name, scenario,
    # params, repeat) — none of which the monitor mode touches, so both
    # variants execute the exact same seeded runs.
    base = get_spec("handover_decay")
    spec = dataclasses.replace(
        base, repeats=repeats,
        settings={**base.settings, "event_driven": event_driven})
    mode = "event" if event_driven else "polling"
    return run_campaign(spec, tmp_path / f"{mode}{repeats}").results


def test_event_driven_decisions_match_polling_on_bundled_spec(tmp_path):
    polling = run_handover_spec(tmp_path, event_driven=False)
    event = run_handover_spec(tmp_path, event_driven=True)
    assert len(polling) == len(event) == 6
    for poll_result, event_result in zip(polling, event):
        poll_metrics = poll_result.record["metrics"]
        event_metrics = event_result.record["metrics"]
        assert (poll_result.record["seed"]
                == event_result.record["seed"])  # same derived seeds
        for key in DECISION_KEYS:
            assert poll_metrics[key] == event_metrics[key], (
                f"decision diverged on {key}: run "
                f"{poll_result.record['run']}")
        if poll_metrics.get("duration_s") is not None:
            assert event_metrics["duration_s"] == pytest.approx(
                poll_metrics["duration_s"], abs=1e-6)


def test_event_driven_spends_fewer_monitor_wakeups(tmp_path):
    polling = run_handover_spec(tmp_path, event_driven=False, repeats=4)
    event = run_handover_spec(tmp_path, event_driven=True, repeats=4)
    poll_wakeups = sum(
        r.record["metrics"].get("monitor_wakeups", 0) for r in polling)
    event_wakeups = sum(
        r.record["metrics"].get("monitor_wakeups", 0) for r in event)
    assert 0 < event_wakeups < poll_wakeups


def test_polling_oracle_flag_still_polls():
    config = HandoverConfig(event_driven=False)
    assert config.event_driven is False
    assert HandoverConfig().event_driven is True
