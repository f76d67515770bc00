"""Contact traces: the connectivity-event stream as canonical rows.

The event-driven core makes pairwise connectivity a first-class
*stream*: every LinkUp/LinkDown the solver predicts is a scheduled event.
:func:`record_contact_trace` subscribes to the node set's
:class:`~repro.radio.bus.ContactStream`, runs the scenario and returns
the stream as a time-ordered list of rows, with *zero polling*: kernel
wakeups occur only at actual contact changes.  :func:`trace_digest`
fingerprints the rows (the ``contact_trace`` workload records it).

Row format (one object per event, canonical key order)::

    {"a": "v3", "b": "v7", "kind": "link-up", "t": 12.5, "tech": "wlan"}

``a`` < ``b`` (pairs are unordered), ``t`` in sim-seconds, ``kind`` one
of ``link-up`` / ``link-down``.  Quality events carry ``threshold``.
Pairs already in contact when recording starts get a synthetic
``link-up`` row at the recording start time, so a trace is
self-contained: per-pair kinds strictly alternate and every contact
interval has an opening edge.
"""

from __future__ import annotations

import hashlib
import json
import typing

from repro.radio.bus import ConnectivityEvent, ContactStream
from repro.radio.technologies import Technology, get_technology
from repro.scenarios.builder import Scenario


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------
def trace_row(event: ConnectivityEvent) -> dict:
    """JSON-safe canonical row for one connectivity event.  O(1).

    ``t`` is sim-seconds, ``a`` < ``b``; ``threshold`` (0–255) appears
    only on quality events.
    """
    row = {
        "t": event.time,
        "kind": event.kind,
        "a": event.node_a,
        "b": event.node_b,
        "tech": event.tech,
    }
    if event.threshold is not None:
        row["threshold"] = event.threshold
    return row


def trace_line(row: typing.Mapping) -> str:
    """Canonical single-line rendering (sorted keys, no spaces)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def trace_digest(rows: typing.Iterable[typing.Mapping]) -> str:
    """SHA-256 over the canonical line rendering of the stream.

    O(rows).  Two streams digest equal iff their canonical JSONL bytes
    are equal — cheap enough to ship in run records (the
    ``contact_trace`` workload).
    """
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(trace_line(row).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class ContactTraceRecorder:
    """Collects the events of a :class:`~repro.radio.bus.ContactStream`.

    The stream watches every unordered pair of the nodes carrying the
    technology; its ``initial`` LinkUps (contacts already underway) open
    the recording, so the stream reconstructs full contact intervals.
    """

    def __init__(self, scenario: Scenario, tech: Technology | str,
                 nodes: typing.Sequence[str] | None = None):
        self.scenario = scenario
        self.tech = get_technology(tech) if isinstance(tech, str) else tech
        world = scenario.world
        eligible = [name
                    for name in (nodes if nodes is not None
                                 else scenario.nodes)
                    if world.has_node(name)
                    and self.tech.name in world.node(name).technologies]
        self.events: list[ConnectivityEvent] = []
        self.stream = ContactStream(world, self.tech, eligible,
                                    callback=self.events.append)
        self.events.extend(self.stream.initial)

    def detach(self) -> None:
        """Cancel all recorder watches (recording finished)."""
        self.stream.detach()

    def rows(self) -> list[dict]:
        """The recorded stream as serialisable rows, in firing order."""
        return [trace_row(event) for event in self.events]


def record_contact_trace(scenario: Scenario, tech: Technology | str,
                         until: float,
                         nodes: typing.Sequence[str] | None = None,
                         ) -> list[dict]:
    """Record the pairwise contact stream of ``scenario`` up to ``until``.

    Installs the recorder, advances the simulation to ``until``
    (absolute sim-seconds), detaches, and returns the rows.  The
    scenario's daemons need not be started: contacts are pure geometry.
    Setup is O(pairs) watch installations (guarded by
    :data:`~repro.radio.bus.MAX_PAIRS`); the run itself wakes the kernel
    only at actual contact changes, so a static world records in
    O(pairs) total.
    """
    recorder = ContactTraceRecorder(scenario, tech, nodes=nodes)
    scenario.run(until=until)
    recorder.detach()
    return recorder.rows()
