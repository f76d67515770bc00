"""The per-world telemetry recorder.

A :class:`Telemetry` instance attaches to one :class:`~repro.radio.world.World`
and records three kinds of row, all JSON-safe dicts tagged with a
``type`` field:

``sample``
    Periodic snapshots of every existing signal source — kernel
    ``events_processed``, trace length, bus/DTN/fault counters, traffic
    meter totals — taken on *sim-time-driven observer events* (no
    polling: the sampler is a kernel event excluded from
    ``events_processed``, and it stops re-arming once only observer
    events remain on the heap, so ``run(until=None)`` still drains).

``span``
    Structured open→close records for the hot flows: contact windows
    (with bytes/budget from the bandwidth plane), bundle journeys
    (inject→deliver/drop with the hop list), handovers (signal-low →
    routing-handover/failed), and fault outages (crash→reboot).

``profile``
    Per-subsystem kernel-event counts from the attached
    :class:`~repro.obs.profile.SubsystemProfiler`, deterministic per
    seed.

Determinism contract: attaching a recorder must not change any recorded
metric.  The recorder therefore never registers bus watches (it uses the
bus's passive tap, invisible to ``BusCounters``), never draws from any
RNG stream, and schedules only observer events (excluded from every
wakeup count).  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import typing

from repro.obs.profile import SubsystemProfiler
from repro.obs.spans import Span, SpanLog

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.dtn.forwarder import DtnPlane
    from repro.metrics.trace import EventTrace, TraceEvent
    from repro.metrics.counters import TrafficMeter
    from repro.radio.bus import ConnectivityEvent
    from repro.radio.world import World

#: Sampling interval (simulated seconds).
SAMPLE_INTERVAL_S = 60.0

#: Fixed column order for ``timeline.csv`` — every sample row has
#: exactly these keys (plus ``type``/``leg``), so the CSV needs no
#: schema inference.
TIMELINE_FIELDS = (
    "t", "kernel_events", "trace_events",
    "bus_scheduled", "bus_fired", "bus_cancelled", "bus_rescheduled",
    "dtn_created", "dtn_transmissions", "dtn_delivered",
    "dtn_duplicates", "dtn_expired", "dtn_evicted", "dtn_dropped_dead",
    "dtn_bytes_offered", "dtn_bytes_transferred",
    "dtn_transfers_truncated", "dtn_transfers_cancelled",
    "fault_crashes", "fault_reboots", "fault_jammed_deliveries",
    "fault_byzantine_beacons",
    "meter_messages", "meter_bytes",
)


class Telemetry:
    """Recorder for one world; see the module docstring for the model.

    Parameters
    ----------
    label:
        Row tag distinguishing multiple worlds in one run (the paired
        router workloads build a fresh scenario per router leg).

    Samples are taken every :data:`SAMPLE_INTERVAL_S` simulated
    seconds.  Attaching also attaches a :class:`SubsystemProfiler` to
    the kernel, unless the simulator already has one.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.world: "World | None" = None
        self.sim = None
        self.trace: "EventTrace | None" = None
        self.meter: "TrafficMeter | None" = None
        self.profiler: SubsystemProfiler | None = None
        self.spans = SpanLog()
        self._owns_profiler = False
        self._samples: list[dict[str, object]] = []
        self._sampler = None
        self._dtn_planes: list["DtnPlane"] = []
        self._open_contacts: dict[str, Span] = {}
        self._last_contact: dict[str, Span] = {}
        self._open_bundles: dict[str, Span] = {}
        self._open_handovers: dict[str, Span] = {}
        self._open_faults: dict[str, Span] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, world: "World", trace: "EventTrace | None" = None,
               meter: "TrafficMeter | None" = None) -> "Telemetry":
        """Wire the recorder into ``world`` and start sampling.

        Attach *before* creating DTN planes so they register themselves
        (``world.telemetry`` is consulted at plane construction).  Taps
        are passive: bus counters, trace contents and every recorded
        metric stay byte-identical with the recorder attached.
        """
        if self.world is not None:
            raise RuntimeError("telemetry already attached")
        self.world = world
        self.sim = world.sim
        self.trace = trace
        self.meter = meter
        world.telemetry = self
        world.bus.add_tap(self._on_connectivity)
        if trace is not None:
            trace.add_tap(self._on_trace)
        if self.sim.profiler is None:
            self.profiler = SubsystemProfiler()
            self.sim.profiler = self.profiler
            self._owns_profiler = True
        self._record_sample()            # t=attach baseline row
        self._arm()
        return self

    def detach(self) -> None:
        """Undo :meth:`attach`; safe to call once after the run."""
        if self.world is None:
            return
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        self.world.bus.remove_tap(self._on_connectivity)
        if self.trace is not None:
            self.trace.remove_tap(self._on_trace)
        if self._owns_profiler:
            self.sim.profiler = None
            self._owns_profiler = False
        if getattr(self.world, "telemetry", None) is self:
            self.world.telemetry = None
        self.world = None

    def register_dtn(self, plane: "DtnPlane") -> None:
        """Include ``plane``'s counters in subsequent sample rows."""
        self._dtn_planes.append(plane)

    # ------------------------------------------------------------------
    # sampling (observer events only — never counted, never polled)
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._sampler = self.sim.call_at(
            self.sim.now + SAMPLE_INTERVAL_S, self._sample,
            name="telemetry-sample", observer=True)

    def _sample(self) -> None:
        self._record_sample()
        # Re-arm only while the *workload* still has events pending;
        # otherwise a self-rescheduling sampler would keep run(None)
        # alive forever.
        if self.sim.pending_real_events() > 0:
            self._arm()
        else:
            self._sampler = None

    def _record_sample(self) -> None:
        row: dict[str, object] = {"type": "sample", "leg": self.label,
                                  "t": self.sim.now}
        row["kernel_events"] = self.sim.events_processed
        row["trace_events"] = len(self.trace) if self.trace is not None else 0
        bus = self.world.stats.bus
        row["bus_scheduled"] = bus.scheduled
        row["bus_fired"] = bus.fired
        row["bus_cancelled"] = bus.cancelled
        row["bus_rescheduled"] = bus.rescheduled
        dtn: dict[str, int] = {}
        for plane in self._dtn_planes:
            for key, value in plane.counters.as_dict().items():
                dtn[key] = dtn.get(key, 0) + value
        for key in ("created", "transmissions", "delivered", "duplicates",
                    "expired", "evicted", "dropped_dead", "bytes_offered",
                    "bytes_transferred", "transfers_truncated",
                    "transfers_cancelled"):
            row[f"dtn_{key}"] = dtn.get(key, 0)
        faults = getattr(self.world, "faults", None)
        fault = faults.counters.as_dict() if faults is not None else {}
        row["fault_crashes"] = fault.get("crashes", 0)
        row["fault_reboots"] = fault.get("reboots", 0)
        row["fault_jammed_deliveries"] = fault.get("jammed_deliveries", 0)
        row["fault_byzantine_beacons"] = fault.get("byzantine_beacons", 0)
        row["meter_messages"] = (
            self.meter.messages() if self.meter is not None else 0)
        row["meter_bytes"] = (
            self.meter.bytes() if self.meter is not None else 0)
        self._samples.append(row)

    # ------------------------------------------------------------------
    # span feeds: contact windows (bus tap)
    # ------------------------------------------------------------------
    @staticmethod
    def _contact_key(node_a: str, node_b: str, tech: str) -> str:
        low, high = sorted((node_a, node_b))
        return f"{low}|{high}|{tech}"

    def _on_connectivity(self, event: "ConnectivityEvent") -> None:
        key = self._contact_key(event.node_a, event.node_b, event.tech)
        if event.kind == "link-up":
            if key not in self._open_contacts:
                span = self.spans.begin("contact", key, event.time)
                self._open_contacts[key] = span
                self._last_contact[key] = span
        elif event.kind == "link-down":
            span = self._open_contacts.pop(key, None)
            if span is not None:
                span.close(event.time, "closed")

    def contact_bytes(self, node_a: str, node_b: str, tech: str,
                      used_bytes: int, budget_bytes: float) -> None:
        """Bandwidth-plane hook: bytes moved vs budget for one window.

        Called by the capacity overlay when it closes a contact session;
        attaches to the open span for the pair if any, else the most
        recently closed one (session close and LinkDown race benignly —
        both orders land the bytes on the same window's span).
        """
        key = self._contact_key(node_a, node_b, tech)
        span = self._open_contacts.get(key) or self._last_contact.get(key)
        if span is not None:
            span.detail["bytes_used"] = (
                span.detail.get("bytes_used", 0) + used_bytes)
            span.detail["budget_bytes"] = budget_bytes

    # ------------------------------------------------------------------
    # span feeds: bundle journeys (forwarder hooks)
    # ------------------------------------------------------------------
    def bundle_injected(self, bundle_id: str, source: str,
                        destination: str, size_bytes: int) -> None:
        if bundle_id not in self._open_bundles:
            self._open_bundles[bundle_id] = self.spans.begin(
                "bundle", bundle_id, self.sim.now, source=source,
                destination=destination, size_bytes=size_bytes, hops=[])

    def bundle_forwarded(self, bundle_id: str, from_node: str,
                         to_node: str) -> None:
        span = self._open_bundles.get(bundle_id)
        if span is not None:
            span.detail["hops"].append([self.sim.now, from_node, to_node])

    def bundle_delivered(self, bundle_id: str, custodian: str) -> None:
        span = self._open_bundles.pop(bundle_id, None)
        if span is not None:
            span.close(self.sim.now, "delivered", final_custodian=custodian)

    def bundle_dropped(self, bundle_id: str, reason: str) -> None:
        """A bundle's *last* living copy is gone (node death / wipe).

        Only terminal losses close the span: single-copy drops of a
        multi-copy bundle leave the journey open on other custodians.
        """
        span = self._open_bundles.pop(bundle_id, None)
        if span is not None:
            span.close(self.sim.now, "dropped", reason=reason)

    # ------------------------------------------------------------------
    # span feeds: handovers (trace tap)
    # ------------------------------------------------------------------
    def _on_trace(self, event: "TraceEvent") -> None:
        connection = event.detail.get("connection_id")
        if connection is None:
            return
        key = f"{event.node}|{connection}"
        if event.kind == "signal-low":
            if key not in self._open_handovers:
                self._open_handovers[key] = self.spans.begin(
                    "handover", key, event.time,
                    quality=event.detail.get("quality"))
        elif event.kind == "routing-handover":
            span = self._open_handovers.pop(key, None)
            if span is not None:
                span.close(event.time, "completed",
                           via=event.detail.get("via"),
                           duration=event.detail.get("duration"))
        elif event.kind == "handover-failed":
            span = self._open_handovers.pop(key, None)
            if span is not None:
                span.close(event.time, "failed",
                           duration=event.detail.get("duration"))

    # ------------------------------------------------------------------
    # span feeds: fault outages (plane hooks)
    # ------------------------------------------------------------------
    def fault_down(self, node: str, kind: str = "crash") -> None:
        if node not in self._open_faults:
            self._open_faults[node] = self.spans.begin(
                "fault", node, self.sim.now, fault_kind=kind)

    def fault_up(self, node: str) -> None:
        span = self._open_faults.pop(node, None)
        if span is not None:
            span.close(self.sim.now, "recovered")

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Record the end-of-run sample row (call once, after the run)."""
        if self.world is not None:
            self._record_sample()

    def records(self) -> list[dict[str, object]]:
        """Every telemetry row: samples, then spans, then profile counts.

        Order is deterministic: samples in time order, spans in the
        order their opening edge was observed (kernel-event order), and
        one profile row with sorted subsystem counts.  No wall-clock
        value ever appears here.
        """
        rows = list(self._samples)
        rows.extend(span.as_record(self.label) for span in self.spans)
        if self.profiler is not None:
            rows.append({"type": "profile", "leg": self.label,
                         "event_counts": self.profiler.count_rows()})
        return rows
