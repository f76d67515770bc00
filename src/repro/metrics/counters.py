"""Traffic counters: who sent how many messages and bytes, by category.

Categories used by the stack:

* ``discovery`` — inquiry fetches and their responses (Ch. 3);
* ``control`` — connection handshakes, acks, disconnects (Ch. 4);
* ``data`` — application payload (including bridge re-transmissions, so a
  two-hop message counts twice — the paper's "double amount of time" for
  interconnection shows up here as double volume);
* ``query`` — the Gnutella baseline's flooded queries (§3.2);
* ``dtn-data`` / ``dtn-control`` — bundle payloads and summary vectors
  exchanged by the store-carry-forward plane (:mod:`repro.dtn`).

:class:`BusCounters` instruments the connectivity-event bus
(:mod:`repro.radio.bus`) — it lives here so the metrics layer owns every
benchmark-asserted counter shape, and surfaces as ``world.stats.bus``.
"""

from __future__ import annotations

import collections
import dataclasses


class Counters:
    """Base of the integer-counter dataclasses below: ``reset`` and
    ``as_dict`` walk :func:`dataclasses.fields`, in field order."""

    def reset(self) -> None:
        """Zero all counters (between benchmark rounds)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot for JSON benchmark artifacts."""
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}


@dataclasses.dataclass
class BusCounters(Counters):
    """Connectivity-event-bus activity (``world.stats.bus``).

    Attributes
    ----------
    scheduled:
        Predicted crossings turned into kernel events (``call_at``).
    fired:
        Connectivity events delivered to watch callbacks.
    cancelled:
        Watches cancelled before their next event fired (power-off,
        node removal, link teardown, monitor stop).
    rescheduled:
        Re-arms without a firing: horizon rollover re-checks plus
        re-predictions after a quality-override change invalidated the
        outstanding schedule.
    """

    scheduled: int = 0
    fired: int = 0
    cancelled: int = 0
    rescheduled: int = 0


@dataclasses.dataclass
class DtnCounters(Counters):
    """Store-carry-forward data-plane activity (:mod:`repro.dtn`).

    One instance per :class:`~repro.dtn.forwarder.DtnPlane`; the DTN
    benchmarks and the ``dtn`` / ``dtn_bandwidth`` workloads read
    these.  Counts are bundle copies except the ``bytes_*`` pair, which
    meters the bandwidth-limited data plane's byte flow (per-node byte
    volume additionally rides the shared :class:`TrafficMeter` under
    the ``dtn-data`` / ``dtn-control`` categories).

    Attributes
    ----------
    created:
        Bundles injected by :meth:`~repro.dtn.forwarder.DtnPlane.send`.
    transmissions:
        Bundle copies pushed over a contact (relays *and* final
        deliveries; the overhead ratio is ``transmissions / delivered``).
    delivered:
        Bundles that reached their destination (first copy only).
    duplicates:
        Copies offered to a node that had already seen the bundle —
        zero under summary-vector dedup, counted to prove it.
    expired:
        Copies dropped because their TTL ran out (lazy sweeps at
        contact/send instants — expiry costs no timer wakeups).
    evicted:
        Copies dropped by capacity eviction (oldest first) making room.
    dropped_dead:
        Copies lost because their custodian was powered off / removed
        mid-carry (the churn path; never delivered post-mortem).
    bytes_offered:
        Bytes the routers *wanted* to move when a bandwidth-limited
        contact opened (sum of the remaining sizes of both directions'
        offers — see :mod:`repro.dtn.capacity`).  Compared against
        ``bytes_transferred`` this is the capacity-pressure gauge.
    bytes_transferred:
        Bundle-payload bytes actually moved over bandwidth-limited
        contacts (partial legs included).  Never exceeds any contact's
        ``window_duration × data_rate`` byte budget (property-tested).
    transfers_truncated:
        Transfers cut short by the contact window — either the byte
        budget ran out mid-bundle or the LinkDown instant arrived with
        the bundle still in flight.  The received prefix is kept by the
        peer's store for partial-transfer resume.
    transfers_cancelled:
        In-flight transfers killed by churn: an endpoint was powered
        off / removed mid-transfer.  Nothing is credited.
    """

    created: int = 0
    transmissions: int = 0
    delivered: int = 0
    duplicates: int = 0
    expired: int = 0
    evicted: int = 0
    dropped_dead: int = 0
    bytes_offered: int = 0
    bytes_transferred: int = 0
    transfers_truncated: int = 0
    transfers_cancelled: int = 0


@dataclasses.dataclass
class FaultCounters(Counters):
    """Fault-injection activity (:mod:`repro.faults`).

    One instance per :class:`~repro.faults.plane.FaultPlane`; the
    ``dtn_faults`` workload and ``bench_fault_tolerance`` read these.

    Attributes
    ----------
    crashes:
        Crash-reboot outages begun: the node went dark and its DTN
        state (store, summary vector, router tables) was wiped.
    reboots:
        Outages ended: the node returned at its mobility position,
        rediscoverable and empty-handed.  At most ``crashes`` (a node
        removed mid-outage never reboots).
    jammed_deliveries:
        Transfer attempts suppressed because an endpoint sat inside a
        mobile jammer's coverage disk at the attempt instant.
    byzantine_beacons:
        Summary-vector advertisements falsified by a byzantine node —
        it claimed to have seen nothing, attracting duplicate copies
        that waste transmissions and contact bytes.
    """

    crashes: int = 0
    reboots: int = 0
    jammed_deliveries: int = 0
    byzantine_beacons: int = 0


@dataclasses.dataclass
class PhyCounters(Counters):
    """Lossy physical-layer activity (:mod:`repro.radio.phy`).

    One instance per :class:`~repro.radio.phy.PhyPlane`; the
    ``dtn_phy`` workload and ``bench_phy`` read these.  Counts are
    individual transmissions (bundle copies, control vectors, link
    frames, bandwidth-plane legs).

    Attributes
    ----------
    offered:
        Transmissions put on the air (every :meth:`~repro.radio.phy.
        PhyPlane.begin`).  Resolved transmissions satisfy ``offered ==
        delivered + lost_fading + lost_collision``; bandwidth-plane
        legs cancelled mid-air (churn/truncation) are offered but never
        resolved, so the sum may fall short of ``offered`` by exactly
        the abandoned legs.
    delivered:
        Transmissions that survived fading and contention (includes
        captures).
    lost_fading:
        Transmissions whose shadowed received power fell below the
        technology's (possibly jammer-raised) sensitivity threshold.
    lost_collision:
        Transmissions lost to a concurrent overlapping transmission at
        the same receiver without the capture margin.
    captured:
        Delivered *despite* overlap — the strong-signal capture effect
        (a subset of ``delivered``).
    """

    offered: int = 0
    delivered: int = 0
    lost_fading: int = 0
    lost_collision: int = 0
    captured: int = 0


@dataclasses.dataclass
class _Bucket:
    messages: int = 0
    bytes: int = 0


class TrafficMeter:
    """Nested counters: (node, category) → messages / bytes."""

    def __init__(self) -> None:
        self._buckets: dict[tuple[str, str], _Bucket] = (
            collections.defaultdict(_Bucket))

    def count(self, node: str, category: str, size_bytes: int,
              messages: int = 1) -> None:
        """Record ``messages`` messages totalling ``size_bytes`` bytes."""
        if size_bytes < 0:
            raise ValueError(f"negative byte count: {size_bytes}")
        bucket = self._buckets[(node, category)]
        bucket.messages += messages
        bucket.bytes += size_bytes

    def messages(self, node: str | None = None,
                 category: str | None = None) -> int:
        """Total messages, filtered by node and/or category."""
        return sum(bucket.messages
                   for (n, c), bucket in self._buckets.items()
                   if (node is None or n == node)
                   and (category is None or c == category))

    def bytes(self, node: str | None = None,
              category: str | None = None) -> int:
        """Total bytes, filtered by node and/or category."""
        return sum(bucket.bytes
                   for (n, c), bucket in self._buckets.items()
                   if (node is None or n == node)
                   and (category is None or c == category))

    def nodes(self) -> list[str]:
        """Every node that has sent anything, sorted."""
        return sorted({n for n, _ in self._buckets})

    def categories(self) -> list[str]:
        """Every category seen, sorted."""
        return sorted({c for _, c in self._buckets})

    def per_node(self, category: str | None = None) -> dict[str, int]:
        """Message counts keyed by node."""
        return {node: self.messages(node=node, category=category)
                for node in self.nodes()}

    def reset(self) -> None:
        """Zero all counters (between benchmark repetitions)."""
        self._buckets.clear()
