"""Tests for :mod:`repro.metrics.trace` — query helpers, repr, taps.

The trace is the oldest metrics module and, until the telemetry plane
started tapping it, the least tested: these tests pin the query-helper
contracts (filtering, ordering, first/count) and the
tap mechanism the :class:`repro.obs.Telemetry` recorder rides.
"""

import pytest

from repro.metrics.trace import EventTrace, TraceEvent


@pytest.fixture
def trace():
    t = EventTrace()
    t.record(1.0, "a", "signal-low", quality=3)
    t.record(2.0, "b", "routing-handover", via="wlan")
    t.record(3.0, "a", "signal-low", quality=2)
    t.record(4.0, "a", "link-up")
    return t


def test_record_returns_the_appended_event(trace):
    event = trace.record(5.0, "c", "custom", flag=True)
    assert isinstance(event, TraceEvent)
    assert event.time == 5.0
    assert event.node == "c"
    assert event.detail == {"flag": True}
    assert len(trace) == 5
    assert list(trace)[-1] is event


def test_events_filters_by_kind_and_node(trace):
    assert len(trace.events()) == 4
    assert [e.time for e in trace.events(kind="signal-low")] == [1.0, 3.0]
    assert [e.time for e in trace.events(node="a")] == [1.0, 3.0, 4.0]
    assert [e.time for e in trace.events(kind="signal-low", node="a")] \
        == [1.0, 3.0]
    assert trace.events(kind="nope") == []


def test_first_last_count_times(trace):
    assert trace.first("signal-low").time == 1.0
    assert trace.events(kind="signal-low")[-1].time == 3.0
    assert trace.first("nope") is None
    assert trace.count("signal-low") == 2
    assert trace.count("signal-low", node="b") == 0
    assert [e.time for e in trace.events(kind="signal-low")] == [1.0, 3.0]


def test_trace_event_repr_is_human_readable():
    event = TraceEvent(time=12.5, node="n1", kind="signal-low",
                       detail={"quality": 3})
    text = repr(event)
    assert "12.500" in text
    assert "n1" in text
    assert "signal-low" in text
    assert "quality" in text


def test_trace_event_is_frozen():
    event = TraceEvent(time=0.0, node="n", kind="k")
    with pytest.raises(Exception):
        event.time = 1.0


# ----------------------------------------------------------------------
# taps (the telemetry plane's feed)
# ----------------------------------------------------------------------
def test_tap_sees_each_event_after_it_is_appended():
    trace = EventTrace()
    seen = []

    def tap(event):
        # The event must already be queryable when the tap runs.
        assert trace.events()[-1] is event
        seen.append(event)

    trace.add_tap(tap)
    first = trace.record(1.0, "a", "x")
    second = trace.record(2.0, "b", "y")
    assert seen == [first, second]


def test_remove_tap_stops_delivery_and_is_idempotent():
    trace = EventTrace()
    seen = []
    tap = seen.append
    trace.add_tap(tap)
    trace.record(1.0, "a", "x")
    trace.remove_tap(tap)
    trace.record(2.0, "a", "y")
    assert [e.kind for e in seen] == ["x"]
    trace.remove_tap(tap)          # absent: no-op, no raise


def test_taps_do_not_change_recorded_events():
    plain = EventTrace()
    tapped = EventTrace()
    tapped.add_tap(lambda event: None)
    for t in (plain, tapped):
        t.record(1.0, "a", "x", k=1)
        t.record(2.0, "b", "y")
    assert [repr(e) for e in plain] == [repr(e) for e in tapped]
