"""Span-style structured records for the telemetry plane.

A :class:`Span` is one hot-flow occurrence with an open and (usually) a
close edge: a contact window opening and closing, a bundle travelling
from injection to delivery or drop, a handover from the signal-low
trigger to the routing switch, a fault taking a node down and the
reboot bringing it back.  Spans carry a small JSON-safe ``detail``
mapping (bytes/budget, hop lists, durations, reasons).

The :class:`SpanLog` keeps spans in *open order* — the order their
opening edge was observed, which is deterministic because every edge is
driven by a kernel event.  Spans still open when the run ends are
emitted with ``status="open"`` rather than silently dropped.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class Span:
    """One open→close flow occurrence."""

    kind: str                      #: "contact" | "bundle" | "handover" | "fault"
    key: str                       #: flow identity within the kind
    opened_at: float               #: sim time of the opening edge
    closed_at: float | None = None
    status: str = "open"           #: "open" until closed
    detail: dict[str, object] = dataclasses.field(default_factory=dict)

    def close(self, when: float, status: str, **detail: object) -> "Span":
        """Record the closing edge (idempotent: first close wins)."""
        if self.closed_at is None:
            self.closed_at = when
            self.status = status
            self.detail.update(detail)
        return self

    def as_record(self, label: str = "") -> dict[str, object]:
        """JSON-safe telemetry row (type-tagged, flat envelope)."""
        record: dict[str, object] = {
            "type": "span",
            "kind": self.kind,
            "key": self.key,
            "t_open": self.opened_at,
            "t_close": self.closed_at,
            "status": self.status,
            "detail": self.detail,
        }
        if label:
            record["leg"] = label
        return record


class SpanLog:
    """Append-only span container, ordered by opening edge."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def begin(self, kind: str, key: str, when: float,
              **detail: object) -> Span:
        span = Span(kind=kind, key=key, opened_at=when,
                    detail=dict(detail))
        self._spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> typing.Iterator[Span]:
        return iter(self._spans)
