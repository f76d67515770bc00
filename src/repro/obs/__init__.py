"""Telemetry plane: structured run traces and profiling hooks.

The observability layer of a run: campaigns write its rows to
``telemetry.jsonl`` and ``timeline.csv``, and the benchmark ledger
(``benchmarks/ledger.py``) counts them in its report.  Public surface:

* :class:`~repro.obs.telemetry.Telemetry` — the per-world recorder
  (samples, spans, profile counts);
* :class:`~repro.obs.runtime.TelemetryContext` + activate/deactivate —
  the process-local switch the experiments runner flips so scenarios
  built inside workloads adopt recorders;
* :class:`~repro.obs.profile.SubsystemProfiler` — per-subsystem
  kernel-event counts (``Simulator.profiler``);
* :class:`~repro.obs.spans.Span` / :class:`~repro.obs.spans.SpanLog` —
  the open→close flow records.

See ``docs/OBSERVABILITY.md`` for the schema and the determinism
contract (attaching a recorder never changes recorded metrics).
"""

from repro.obs.profile import SubsystemProfiler, subsystem_label
from repro.obs.runtime import (TelemetryContext, activate, active,
                               deactivate)
from repro.obs.spans import Span, SpanLog
from repro.obs.telemetry import SAMPLE_INTERVAL_S, TIMELINE_FIELDS, Telemetry

__all__ = [
    "SAMPLE_INTERVAL_S",
    "TIMELINE_FIELDS",
    "Span",
    "SpanLog",
    "SubsystemProfiler",
    "Telemetry",
    "TelemetryContext",
    "activate",
    "active",
    "deactivate",
    "subsystem_label",
]
