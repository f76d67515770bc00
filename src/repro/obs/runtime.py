"""Process-local telemetry activation for the experiments runner.

Workloads build their scenarios internally (the paired router workloads
build a *fresh* scenario per router leg), so the runner cannot hand a
recorder to each world directly.  Instead it activates a
:class:`TelemetryContext` around the workload call;
:class:`~repro.scenarios.builder.Scenario` consults :func:`active` at
construction and adopts a recorder for its world.  The context is
process-local state, which is safe because worker processes each run
one ``execute_point_outcome`` at a time.

Activation changes nothing recorded: run seeds derive from the run
label (never from settings), recorders only observe, and the context's
collected rows travel back on their own channel next to the timings
side channel.
"""

from __future__ import annotations

import typing

from repro.obs.telemetry import DEFAULT_INTERVAL_S, Telemetry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.builder import Scenario

_ACTIVE: "TelemetryContext | None" = None


class TelemetryContext:
    """Collects one recorder per scenario built while active."""

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 profile: bool = True):
        self.interval_s = float(interval_s)
        self.profile = profile
        self.telemetries: list[Telemetry] = []

    def adopt(self, scenario: "Scenario") -> Telemetry:
        """Attach a recorder to a freshly built scenario's world.

        Legs are labelled by adoption ordinal, which is deterministic:
        workloads build their scenarios in a fixed order.
        """
        telemetry = Telemetry(label=f"leg{len(self.telemetries)}",
                              interval_s=self.interval_s,
                              profile=self.profile)
        telemetry.attach(scenario.world, trace=scenario.trace,
                         meter=scenario.meter)
        self.telemetries.append(telemetry)
        return telemetry

    def collect(self) -> tuple[list[dict[str, object]], dict[str, float]]:
        """Finalize every recorder; return (telemetry rows, wall timings)."""
        rows: list[dict[str, object]] = []
        timings: dict[str, float] = {}
        for telemetry in self.telemetries:
            telemetry.finalize()
            rows.extend(telemetry.records())
            timings.update(telemetry.timing_entries())
            telemetry.detach()
        return rows, timings


def activate(context: TelemetryContext) -> TelemetryContext:
    """Install ``context`` as this process's active telemetry context."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a telemetry context is already active")
    _ACTIVE = context
    return context


def deactivate() -> None:
    """Clear the active context (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> TelemetryContext | None:
    """The context scenarios should adopt recorders from, if any."""
    return _ACTIVE
