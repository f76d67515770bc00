"""The store-carry-forward data plane over the connectivity bus.

PR 3 made pairwise connectivity an *event stream* — every LinkUp /
LinkDown instant is predicted analytically and scheduled on the kernel.
This package is the message layer that exploits it: application bundles
are **stored** by a custodian, **carried** through disconnection, and
**forwarded** whenever a predicted contact makes progress possible —
delivery survives the link instead of dying with it.

Modules (mechanics / policy split):

* :mod:`~repro.dtn.bundle` — the immutable message unit;
* :mod:`~repro.dtn.store` — per-node custody (lazy TTL expiry,
  summary vectors);
* :mod:`~repro.dtn.routing` — the routers: direct-delivery, epidemic
  (summary-vector dedup), binary spray-and-wait, and PRoPHET
  (encounter-history delivery predictability with aging and
  transitivity, shipped as control traffic);
* :mod:`~repro.dtn.forwarder` — the event-driven forwarder
  (:class:`DtnOverlay`, wakes only at scheduled contact events) and the
  1 s polling oracle (:class:`PollingDtnOverlay`) it is benchmarked
  against;
* :mod:`~repro.dtn.capacity` — the bandwidth-limited contact plane
  (:class:`BandwidthDtnOverlay`): per-contact byte budgets priced from
  predicted contact windows, ranked transmission queues, partial-
  transfer resume and per-link in-flight accounting;
* :mod:`~repro.dtn.traffic` — deterministic injection schedules for the
  experiment workloads.

See docs/ARCHITECTURE.md ("Data plane (DTN)") for the event-flow
diagram, the baseline comparison table and the plane's invariants, and
docs/DTN_GUIDE.md for the router decision table and the capacity-model
math.
"""

from repro.dtn.bundle import Bundle
from repro.dtn.capacity import BandwidthDtnOverlay, ContactSession
from repro.dtn.forwarder import (
    DeliveryRecord,
    DtnOverlay,
    DtnPlane,
    PollingDtnOverlay,
)
from repro.dtn.routing import (
    DirectDelivery,
    Epidemic,
    Prophet,
    Router,
    SprayAndWait,
    make_router,
    transmission_order,
)
from repro.dtn.store import MessageStore
from repro.dtn.traffic import Injection, generate_traffic, schedule_traffic

__all__ = [
    "BandwidthDtnOverlay",
    "Bundle",
    "ContactSession",
    "DeliveryRecord",
    "DirectDelivery",
    "DtnOverlay",
    "DtnPlane",
    "Epidemic",
    "Injection",
    "MessageStore",
    "PollingDtnOverlay",
    "Prophet",
    "Router",
    "SprayAndWait",
    "generate_traffic",
    "make_router",
    "schedule_traffic",
    "transmission_order",
]
