"""Per-subsystem kernel-event counts.

The kernel names every event and bare call it runs: the bus's
predicted crossings and horizon re-checks arrive as "bus" and
"bus-rearm", the bandwidth plane's transfer legs as "dtn-xfer", and
others carry per-instance suffixes ("dtn-inject:a->b",
"fault:crash:n3", "timeout(5.0)", ...; a bare call defaults to
"call-at").  When a :class:`SubsystemProfiler` is attached to
``Simulator.profiler``, ``step()`` counts each one under a *subsystem
label* — the name stripped of its per-instance suffixes (everything
after the first ``#``, ``:`` or ``(``).

The counts are a pure function of the simulated schedule —
deterministic per seed, so they go into recorded telemetry.  Where the
host time goes is the layer trace's business (``perf/``), which bills
each callback to the module that defines it.
"""

from __future__ import annotations


def subsystem_label(event_name: str) -> str:
    """Collapse a per-instance event name to its subsystem bucket."""
    if not event_name:
        return "anonymous"
    for separator in ("#", ":", "("):
        head, _, _ = event_name.partition(separator)
        event_name = head
    return event_name or "anonymous"


class SubsystemProfiler:
    """Accumulates per-subsystem kernel-event counts."""

    def __init__(self) -> None:
        self.event_counts: dict[str, int] = {}

    def count(self, event_name: str, observer: bool = False) -> None:
        """Count one event under its subsystem label.

        Observer (telemetry) events are bucketed under ``"telemetry"``
        regardless of name, so the recorder's own events are visible —
        and visibly separate from the workload's subsystems.
        """
        label = "telemetry" if observer else subsystem_label(event_name)
        self.event_counts[label] = self.event_counts.get(label, 0) + 1

    def count_rows(self) -> dict[str, int]:
        """Deterministic per-subsystem event counts (sorted by label)."""
        return {label: self.event_counts[label]
                for label in sorted(self.event_counts)}
