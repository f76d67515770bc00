"""Unit tests for counters, traces and statistics."""

import math

import pytest

from repro.metrics import EventTrace, TrafficMeter, summarize
from repro.metrics.stats import t_critical_95
from repro.metrics.tables import format_table, render_csv


# ----------------------------------------------------------------------
# TrafficMeter
# ----------------------------------------------------------------------
def test_meter_counts_messages_and_bytes():
    meter = TrafficMeter()
    meter.count("a", "data", 100)
    meter.count("a", "data", 50)
    meter.count("b", "discovery", 10)
    assert meter.messages() == 3
    assert meter.bytes() == 160
    assert meter.messages(node="a") == 2
    assert meter.bytes(node="a", category="data") == 150
    assert meter.messages(category="discovery") == 1


def test_meter_multi_message_count():
    meter = TrafficMeter()
    meter.count("a", "discovery", 96, messages=4)
    assert meter.messages() == 4
    assert meter.bytes() == 96


def test_meter_rejects_negative_bytes():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        meter.count("a", "data", -1)


# ----------------------------------------------------------------------
# EventTrace
# ----------------------------------------------------------------------
def test_trace_record_and_filter():
    trace = EventTrace()
    trace.record(1.0, "a", "connected", peer="b")
    trace.record(2.0, "b", "connected", peer="a")
    trace.record(3.0, "a", "handover")
    assert len(trace) == 3
    assert len(trace.events(kind="connected")) == 2
    assert len(trace.events(node="a")) == 2
    assert len(trace.events(kind="connected", node="a")) == 1


def test_trace_first_last_count_times():
    trace = EventTrace()
    for t in (1.0, 5.0, 9.0):
        trace.record(t, "x", "tick")
    assert trace.first("tick").time == 1.0
    assert trace.events(kind="tick")[-1].time == 9.0
    assert trace.count("tick") == 3
    assert [e.time for e in trace.events(kind="tick")] == [1.0, 5.0, 9.0]
    assert trace.first("missing") is None


def test_trace_detail_is_captured():
    trace = EventTrace()
    event = trace.record(1.0, "n", "kind", value=42)
    assert event.detail == {"value": 42}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == 2.5
    assert summary.median == 2.5
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.stdev > 0


def test_summarize_single_value_has_zero_stdev():
    summary = summarize([5.0])
    assert summary.stdev == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_str_is_readable():
    text = str(summarize([1.0, 2.0]))
    assert "mean=" in text and "n=2" in text


# ----------------------------------------------------------------------
# ci95
# ----------------------------------------------------------------------
def test_ci95_known_sample():
    # sd([1..5]) = sqrt(2.5), t(4, 95%) = 2.776
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    expected = 2.776 * math.sqrt(2.5) / math.sqrt(5)
    assert summary.ci95 == pytest.approx(expected, rel=1e-9)
    assert 0 < summary.ci95 < summary.maximum - summary.minimum


def test_ci95_single_observation_is_zero():
    assert summarize([7.0]).ci95 == 0.0


def test_ci95_constant_sample_is_zero():
    assert summarize([3.0, 3.0, 3.0, 3.0]).ci95 == 0.0


def test_ci95_shrinks_with_sample_size():
    narrow = summarize([1.0, 2.0] * 20)
    wide = summarize([1.0, 2.0] * 2)
    assert narrow.ci95 < wide.ci95


def test_t_critical_table_and_tail():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(30) == pytest.approx(2.042)
    # beyond the table: monotone toward the 1.96 normal quantile
    assert 1.96 < t_critical_95(120) < t_critical_95(40) < 2.042
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_ci95_in_str():
    assert "ci95=" in str(summarize([1.0, 2.0]))


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def test_format_table_aligns_columns():
    text = format_table("T", ["name", "v"], [["a", 1], ["long-name", 22]])
    lines = text.strip().split("\n")
    assert lines[0] == "== T =="
    # The name column is padded to its widest cell ("long-name"), and
    # the numeric v column right-aligns: both value cells END at the
    # same column.
    row_a, row_long = lines[-2], lines[-1]
    assert len(row_a) == len(row_long)
    assert row_a.endswith(" 1")
    assert row_long.endswith("22")
    assert row_a.index("1") > len("long-name")


def test_format_table_right_aligns_numeric_columns_only():
    text = format_table("T", ["metric", "n"],
                        [["delivery", 7], ["latency_mean", 123]])
    rows = text.strip().split("\n")[-2:]
    # Numeric header + cells are right-justified against the widest.
    header = text.strip().split("\n")[1]
    assert header.endswith("  n")
    assert rows[0].endswith("    7")
    assert rows[1].endswith("  123")
    # The text column stays left-aligned.
    assert rows[0].startswith("delivery ")


def test_format_table_renders_none_as_em_dash():
    text = format_table("T", ["metric", "value"],
                        [["latency", None], ["ratio", 0.5]])
    assert "None" not in text
    assert "—" in text
    # A None-bearing column with at least one number still counts as
    # numeric and right-aligns.
    rows = text.strip().split("\n")[-2:]
    assert rows[0].endswith("    —")
    assert rows[1].endswith("  0.5")


def test_format_table_mixed_column_stays_left_aligned():
    text = format_table("T", ["k", "v"], [["a", "fast"], ["b", 3]])
    rows = text.strip().split("\n")[-2:]
    # One string cell makes the column textual: left alignment.
    assert rows[1].startswith("b  3")


def test_format_table_tolerates_short_rows():
    # A row narrower than the header list renders ragged, as it
    # always did — the alignment pass must not index past its end.
    text = format_table("T", ["a", "b"], [["x"], ["y", 2]])
    assert "x" in text and "2" in text


def test_render_csv_quotes_and_none():
    text = render_csv(["a", "b"], [["x,y", None], [1, 2.5]])
    assert text == 'a,b\n"x,y",\n1,2.5\n'
