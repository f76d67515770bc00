"""Event traces: an append-only timeline of labelled simulation events.

Experiments assert on traces ("handover fired at t", "result delivered
after reconnect") instead of poking at internals, which keeps the core
decoupled from the harness.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    node: str
    kind: str
    detail: dict = dataclasses.field(default_factory=dict)

    def __repr__(self) -> str:
        return f"[{self.time:10.3f}] {self.node}: {self.kind} {self.detail}"


class EventTrace:
    """Append-only list of :class:`TraceEvent` with query helpers.

    Taps are passive observers (the telemetry plane): each recorded
    event is handed to every registered tap *after* it is appended.
    Taps must not record back into the trace.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._taps: list[typing.Callable[[TraceEvent], None]] = []

    def record(self, time: float, node: str, kind: str,
               **detail: object) -> TraceEvent:
        """Append an event and return it."""
        event = TraceEvent(time=time, node=node, kind=kind,
                           detail=dict(detail))
        self._events.append(event)
        for tap in self._taps:
            tap(event)
        return event

    def add_tap(self, tap: typing.Callable[[TraceEvent], None]) -> None:
        """Register a passive observer of newly recorded events."""
        self._taps.append(tap)

    def remove_tap(self, tap: typing.Callable[[TraceEvent], None]) -> None:
        """Unregister a tap (no-op if absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> typing.Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, kind: str | None = None,
               node: str | None = None) -> list[TraceEvent]:
        """Events filtered by kind and/or node, in time order."""
        return [event for event in self._events
                if (kind is None or event.kind == kind)
                and (node is None or event.node == node)]

    def first(self, kind: str, node: str | None = None) -> TraceEvent | None:
        """Earliest matching event, or None."""
        matching = self.events(kind=kind, node=node)
        return matching[0] if matching else None

    def count(self, kind: str, node: str | None = None) -> int:
        """Number of matching events."""
        return len(self.events(kind=kind, node=node))
