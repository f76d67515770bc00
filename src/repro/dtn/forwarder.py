"""The store-carry-forward forwarder: custody exchange at contact events.

The plane's mechanics live here, policy-free (routers supply policy,
:mod:`repro.dtn.routing`; stateful routers additionally observe
contacts through ``on_contact`` and ship ``control_bytes`` at every
contact-open).  Transfers here are *instantaneous* — the
infinite-contact-bandwidth baseline; the bandwidth-limited plane that
schedules transfers within the contact window is
:class:`repro.dtn.capacity.BandwidthDtnOverlay`, built on these same
mechanics.  Three classes:

* :class:`DtnPlane` — stores, bundle injection, the contact-synchronous
  exchange cascade, delivery bookkeeping.  Knows nothing about *how*
  contacts are detected.
* :class:`DtnOverlay` — the event-driven forwarder: it subscribes to
  the node set's :class:`~repro.radio.bus.ContactStream` on the
  connectivity bus, so the forwarder wakes **only** at predicted
  LinkUp/LinkDown instants.  ``wakeups`` counts exactly those
  callback firings — the invariant *no forwarder wakeup without a
  scheduled contact event* is checkable as
  ``overlay.wakeups <= world.stats.bus.fired``.
* :class:`PollingDtnOverlay` — the 1 s polling oracle kept as the test
  and benchmark baseline: a process ticks every ``POLL_INTERVAL_S``,
  re-derives the adjacency of every node from the spatial grid and
  diffs it.  Each tick wakes every node's forwarder, so ``wakeups``
  grows as ``N × duration / interval`` — the figure the event-driven
  overlay beats ≥ 5× in ``benchmarks/bench_dtn_delivery.py``.

Exchange semantics (both implementations share them):

1. On contact-up (and on every injection), the two stores drop expired
   bundles (lazy TTL — no timers; a store with nothing due skips the
   sweep in O(1)), trade summary vectors (``dtn-control`` traffic on
   the shared meter) and the router picks what to transmit
   (``dtn-data``).  The router is asked only when the carrier holds a
   bundle missing from the peer's vector as the carrier heard it (the
   empty vector for a blind carrier): no router offers a bundle the
   peer has seen, so without such news the pass would offer nothing.
   A directed pair whose last pass offered nothing is *settled*: while
   neither store nor the router's state has changed since (their
   ``version`` counters), the next pass returns at once.  Faults act
   on bundles, not on passes: the fault gate runs only once the
   router offered something (a gated pass moves nothing and is not
   settled), and a byzantine speaker's empty-vector lie is heard once,
   at contact-open, as blindness for the rest of the contact.
2. Transfers *cascade*: a node whose store grew immediately re-offers
   to its other current contacts, so a connected cluster equilibrates
   within the contact instant (the infinite-contact-bandwidth baseline
   assumption; documented in docs/ARCHITECTURE.md).  A cascade from an
   empty store offers nothing: it only sweeps the contacts with a
   bundle due to expire, and skips even that while no store of the
   plane can hold one.
3. Delivery to the destination releases the transmitting custodian's
   copy and records one :class:`DeliveryRecord` per bundle (first copy
   wins; summary vectors stop later copies).

Units: metres / sim-seconds / bytes throughout.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing

from repro.dtn.bundle import (
    DEFAULT_SIZE_BYTES,
    DEFAULT_TTL_S,
    Bundle,
)
from repro.dtn.routing import Router
from repro.dtn.store import MessageStore
from repro.metrics.counters import DtnCounters, TrafficMeter
from repro.radio.bus import LINK_UP, ConnectivityEvent, ContactStream
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.world import World

#: Bytes charged per bundle id in a summary-vector exchange.
SUMMARY_VECTOR_ID_BYTES = 8

#: Tick period of the :class:`PollingDtnOverlay` oracle (seconds).
POLL_INTERVAL_S = 1.0


@dataclasses.dataclass(frozen=True)
class DeliveryRecord:
    """One bundle's arrival at its destination."""

    bundle_id: str
    source: str
    destination: str
    custodian: str           #: the node that handed the copy over
    created_at: float
    delivered_at: float

    @property
    def latency_s(self) -> float:
        """Creation-to-delivery delay, sim-seconds."""
        return self.delivered_at - self.created_at


class DtnPlane:
    """Stores + exchange mechanics over a set of world nodes.

    The plane manages every world node carrying ``tech``, sorted, each
    in an unbounded store.  One :class:`~repro.metrics.counters.
    DtnCounters` instance is shared by all stores; byte volume rides
    ``meter`` (``dtn-data`` / ``dtn-control`` categories) when one is
    supplied.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 meter: TrafficMeter | None = None):
        self.world = world
        self.sim = world.sim
        self.router = router
        self.tech = get_technology(tech) if isinstance(tech, str) else tech
        self.counters = DtnCounters()
        self.meter = meter
        self.stores: dict[str, MessageStore] = {
            name: MessageStore(name, counters=self.counters)
            for name in sorted(world.node_ids())
            if self.tech.name in world.node(name).technologies}
        self.delivered: dict[str, DeliveryRecord] = {}
        #: Contact-event callback firings (see class docstrings).
        self.wakeups = 0
        #: Offer passes the exchange actually ran (``Router.offers``
        #: calls); settled pairs and carriers without news for the peer
        #: skip theirs.  A work counter, kept out of
        #: :class:`DtnCounters` so records do not change with it.
        self.offer_passes = 0
        #: No store of the plane holds a bundle that expires before
        #: this instant: a lower bound, lowered wherever this class
        #: adds custody and never raised.  Before it, a cascade from an
        #: empty store has no contact to sweep.
        self._expiry_floor = math.inf
        self._adjacent: dict[str, set[str]] = {
            name: set() for name in self.stores}
        # Sorted copy of each node's adjacency for the cascade, rebuilt
        # only after the adjacency changed (never mutated in place).
        self._adjacent_sorted: dict[str, list[str]] = {}
        #: Directed pair → (carrier version, peer version, router
        #: version, blind) at its last empty offer pass.
        self._settled: dict[tuple[str, str], tuple] = {}
        self._sequences: dict[str, int] = {}
        #: Installed fault plane, if the world carries one (crash /
        #: deaf-mute / jammer / byzantine injection — :mod:`repro.faults`).
        self.faults = getattr(world, "faults", None)
        if self.faults is not None:
            self.faults.add_listener(self)
        #: Installed lossy PHY plane, if any (:mod:`repro.radio.phy`).
        #: ``None`` keeps every hook below on the literal pre-PHY path.
        self.phy = getattr(world, "phy", None)
        #: Directed pairs ``(listener, speaker)`` whose contact-open
        #: control exchange was PHY-lost or came from a byzantine
        #: speaker: the listener never heard the speaker's true summary
        #: vector and offers blind (against the empty vector) for the
        #: rest of the contact.  Cleared at :meth:`contact_down`.
        self._blind: set[tuple[str, str]] = set()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.register_dtn(self)

    @property
    def telemetry(self):
        """The world's attached recorder, if any (looked up live so the
        plane works regardless of attach order; ``None`` costs one
        attribute read per hook site)."""
        return getattr(self.world, "telemetry", None)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str,
             size_bytes: int = DEFAULT_SIZE_BYTES,
             ttl_s: float = DEFAULT_TTL_S) -> Bundle:
        """Inject one bundle at ``source`` addressed to ``destination``.

        The source takes custody immediately and the exchange cascade
        runs at once, so a destination already in contact receives the
        bundle in the same instant.  Raises ``KeyError`` for nodes the
        plane does not manage and ``ValueError`` for a self-addressed
        bundle or a crashed source.
        """
        for name in (source, destination):
            if name not in self.stores:
                raise KeyError(f"node {name!r} is not on the DTN plane")
        if source == destination:
            # Refused before the source's sequence number is consumed.
            raise ValueError(f"node {source!r} cannot send to itself")
        if self.faults is not None and self.faults.is_crashed(source):
            raise ValueError(
                f"node {source!r} is crashed; bundles cannot originate "
                f"at a dark node (a crashed *destination* is fine — the "
                f"bundle waits out the outage)")
        sequence = self._sequences.get(source, 0) + 1
        self._sequences[source] = sequence
        copies = getattr(self.router, "initial_copies", 1)
        bundle = Bundle(bundle_id=f"{source}#{sequence}", source=source,
                        destination=destination, created_at=self.sim.now,
                        ttl_s=ttl_s, size_bytes=size_bytes, copies=copies)
        self.counters.created += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.bundle_injected(bundle.bundle_id, source,
                                      destination, size_bytes)
        store = self.stores[source]
        store.add(bundle, self.sim.now)
        self._expiry_floor = min(self._expiry_floor, store.next_expiry)
        self._cascade_from(source)
        return bundle

    # ------------------------------------------------------------------
    # contact bookkeeping (shared by both detection strategies)
    # ------------------------------------------------------------------
    def contact_up(self, a: str, b: str) -> None:
        """A contact opened: record adjacency and equilibrate.

        :meth:`_open_contact` runs first, then the exchange cascade.
        O(cluster) through the cascade.
        """
        if a not in self.stores or b not in self.stores:
            return
        self._open_contact(a, b)
        self._exchange(a, b)
        self._exchange(b, a)
        self._cascade_from(a)
        self._cascade_from(b)

    def contact_down(self, a: str, b: str) -> None:
        """A contact closed: forget the adjacency.  O(1)."""
        self._adjacent.get(a, set()).discard(b)
        self._adjacent.get(b, set()).discard(a)
        self._adjacent_sorted.pop(a, None)
        self._adjacent_sorted.pop(b, None)
        self._settled.pop((a, b), None)
        self._settled.pop((b, a), None)
        if self._blind:
            self._blind.discard((a, b))
            self._blind.discard((b, a))

    def _open_contact(self, a: str, b: str,
                      airtime_s: typing.Callable[[int], float]
                      | None = None) -> int:
        """Record adjacency and ship both sides' contact-open control.

        The router observes the encounter first (``on_contact`` — the
        PRoPHET predictability updates).  Then each direction, a→b
        before b→a, meters its control bytes and puts them on the lossy
        air when a PHY plane is installed.  A lost vector leaves the
        *receiver* blind about the speaker for the rest of this contact
        — it offers against the empty vector, re-offering bundles the
        peer already holds (duplicates cost transmissions and bytes,
        exactly the control-loss failure mode binary links could never
        show).  The bytes were metered either way: the speaker spent
        the airtime.  A heard vector from a byzantine speaker is its
        empty-vector lie (:meth:`~repro.faults.plane.FaultPlane.
        advertised_vector`, counted once here) and blinds the receiver
        the same way.  Ground truth — ``has_seen``, delivery, custody
        settlement — never depends on blindness: the distortions are
        about advertisement, not about reception.  ``airtime_s(size)``
        gives a vector's air window (``None``: the technology's
        transmit time).  Returns the total control bytes.  O(seen).
        """
        self._adjacent[a].add(b)
        self._adjacent[b].add(a)
        self._adjacent_sorted.pop(a, None)
        self._adjacent_sorted.pop(b, None)
        self.router.on_contact(a, b, self.sim.now)
        total = 0
        for sender, receiver in ((a, b), (b, a)):
            size = self.contact_control_bytes(sender, receiver)
            total += size
            if self.meter is not None:
                self.meter.count(sender, "dtn-control", size)
            if self.phy is not None and not self.phy.transmit(
                    sender, receiver, size, kind="control", tech=self.tech,
                    duration_s=None if airtime_s is None
                    else airtime_s(size)):
                self._blind.add((receiver, sender))
            elif (self.faults is not None
                  and self.faults.is_byzantine(sender)):
                self.faults.advertised_vector(
                    sender, self.stores[sender].summary_vector())
                self._blind.add((receiver, sender))
        return total

    def contact_control_bytes(self, sender: str, receiver: str) -> int:
        """Control bytes ``sender`` ships when this contact opens.

        Its summary vector (8 B per seen id) plus the router's own
        control vector (:meth:`~repro.dtn.routing.Router.
        control_bytes` — 0 for the stateless baselines, the
        predictability table for PRoPHET).  O(seen).
        """
        return (SUMMARY_VECTOR_ID_BYTES * self.stores[sender].seen_count()
                + self.router.control_bytes(sender, receiver))

    def _exchange(self, carrier: str, peer: str) -> bool:
        """One-directional offer pass; True if the peer's store grew.

        O(1) when nothing is due to expire and the pair is settled,
        O(carried) when the peer has seen every carried bundle (see
        "Exchange semantics" in the module docstring).  The peer's
        vector is the one the carrier heard: the empty vector while
        the carrier is blind about the peer.
        """
        now = self.sim.now
        carrier_store = self.stores[carrier]
        peer_store = self.stores[peer]
        if now >= carrier_store.next_expiry:
            carrier_store.expire(now)
        if now >= peer_store.next_expiry:
            peer_store.expire(now)
        pair = (carrier, peer)
        blind = pair in self._blind
        state = (carrier_store.version, peer_store.version,
                 self.router.version, blind)
        if self._settled.get(pair) == state:
            return False
        if not carrier_store.has_news_for(None if blind else peer_store):
            self._settled[pair] = state
            return False
        self.offer_passes += 1
        offers = self.router.offers(
            carrier_store, peer,
            frozenset() if blind else peer_store.summary_vector())
        if not offers:
            self._settled[pair] = state
            return False
        if (self.faults is not None
                and not self.faults.can_transmit(carrier, peer)):
            return False
        grew = False
        for bundle in offers:
            if peer_store.has_seen(bundle.bundle_id):
                self.counters.duplicates += 1
                continue
            if (self.phy is not None
                    and not self.phy.transmit(carrier, peer,
                                              bundle.size_bytes,
                                              tech=self.tech)):
                # Copy lost on the air: the bytes were spent, custody
                # did not move, no spray token was burnt.  The bundle
                # is re-offered at the pair's next exchange event.
                if self.meter is not None:
                    self.meter.count(carrier, "dtn-data",
                                     bundle.size_bytes)
                continue
            self.counters.transmissions += 1
            if self.meter is not None:
                self.meter.count(carrier, "dtn-data", bundle.size_bytes)
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.bundle_forwarded(bundle.bundle_id, carrier, peer)
            peer_copy = self.router.after_transmit(
                carrier_store, bundle, peer, now)
            if bundle.destination == peer:
                self._deliver(bundle, carrier, peer)
            elif peer_store.add(peer_copy, now):
                grew = True
            self._expiry_floor = min(self._expiry_floor,
                                     carrier_store.next_expiry,
                                     peer_store.next_expiry)
        return grew

    def _deliver(self, bundle: Bundle, custodian: str,
                 destination: str) -> None:
        self.stores[destination].mark_seen(bundle.bundle_id)
        if bundle.bundle_id in self.delivered:
            return   # a later copy slipped through: first arrival wins
        self.counters.delivered += 1
        self.delivered[bundle.bundle_id] = DeliveryRecord(
            bundle_id=bundle.bundle_id, source=bundle.source,
            destination=destination, custodian=custodian,
            created_at=bundle.created_at, delivered_at=self.sim.now)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.bundle_delivered(bundle.bundle_id, custodian)

    def _cascade_from(self, origin: str) -> None:
        """Re-offer outward from ``origin`` until the cluster settles.

        FIFO over nodes whose store changed, contacts visited in sorted
        order — deterministic, and monotone in the union of seen sets,
        so it terminates.  The cluster-wide equilibrium models contacts
        whose duration dwarfs the transmission time of the buffered
        bundles (the baseline assumption; see module docstring).

        An origin with no news even for a peer that has seen nothing
        (an empty store) offers nothing, so it exchanges with no one
        and only sweeps its due contacts, as their exchanges would
        have.
        """
        if not self.stores[origin].has_news_for(None):
            now = self.sim.now
            if now >= self._expiry_floor:
                for peer in self._sorted_contacts(origin):
                    store = self.stores[peer]
                    if now >= store.next_expiry:
                        store.expire(now)
            return
        queue: collections.deque[str] = collections.deque([origin])
        while queue:
            node = queue.popleft()
            for peer in self._sorted_contacts(node):
                if self._exchange(node, peer):
                    queue.append(peer)

    def _sorted_contacts(self, node: str) -> list[str]:
        """``node``'s contacts, sorted; cached until they change."""
        view = self._adjacent_sorted.get(node)
        if view is None:
            view = sorted(self._adjacent.get(node, ()))
            self._adjacent_sorted[node] = view
        return view

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def live_nodes(self) -> list[str]:
        """Plane nodes, in plane order (crashed ones included: a crash
        is an outage, not a departure)."""
        return list(self.stores)

    def crashed(self, node_id: str) -> bool:
        """True while the node is crash-suspended (fault plane).  O(1)."""
        return self.faults is not None and self.faults.is_crashed(node_id)

    # ------------------------------------------------------------------
    # fault-plane listener hooks
    # ------------------------------------------------------------------
    def on_crash(self, node_id: str) -> None:
        """A crash-reboot outage began: full state loss, contacts close.

        The node stays on the plane — it returns at reboot with an empty
        store and no memory of what it had seen
        (:meth:`~repro.dtn.store.MessageStore.wipe`).  Buffered bundles
        are counted ``dropped_dead`` like any custodian death; stateful
        routers drop the node's state
        (:meth:`~repro.dtn.routing.Router.on_crash`).  The fault plane
        calls this *before* ``World.suspend_node``, so adjacency closes
        here while the bus still reports pre-fault geometry (the
        synthetic LinkDowns that follow find the contacts already
        gone — a harmless no-op).
        """
        if node_id not in self.stores:
            return
        victims = self.stores[node_id].wipe()
        self._telemetry_losses(victims, "custodian-crashed")
        self.router.on_crash(node_id)
        for peer in list(self._adjacent.get(node_id, ())):
            self.contact_down(node_id, peer)

    def _telemetry_losses(self, victims: list[Bundle],
                          reason: str) -> None:
        """Close bundle spans whose *last* living copy just vanished.

        A multi-copy bundle's journey stays open while any other live
        store still holds it; only terminal losses end the span.  Runs
        only on (rare) crash edges, O(victims × nodes).
        """
        telemetry = self.telemetry
        if telemetry is None or not victims:
            return
        for bundle in victims:
            if bundle.bundle_id in self.delivered:
                continue
            survives = any(bundle.bundle_id in store
                           for store in self.stores.values())
            if not survives:
                telemetry.bundle_dropped(bundle.bundle_id, reason)

    # ------------------------------------------------------------------
    # result views
    # ------------------------------------------------------------------
    def delivery_ratio(self) -> float:
        """Delivered / created (1.0 for an idle plane)."""
        if self.counters.created == 0:
            return 1.0
        return self.counters.delivered / self.counters.created

    def latencies(self) -> list[float]:
        """Delivery latencies in delivery order, sim-seconds."""
        return [record.latency_s for record in self.delivered.values()]

    def overhead_ratio(self) -> float:
        """Transmissions per delivery (the classic DTN overhead figure)."""
        return self.counters.transmissions / max(1, self.counters.delivered)


class DtnOverlay(DtnPlane):
    """Event-driven contact detection over a :class:`~repro.radio.bus.
    ContactStream` (one bus watch per node pair).

    The stream's ``initial`` LinkUps — pairs already in range at attach,
    which a settled pair would never report — are replayed through
    :meth:`contact_up` once every watch exists, so cascades observe the
    full current topology and ``wakeups`` does not count them.
    ``detach()`` cancels the watches.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 meter: TrafficMeter | None = None):
        super().__init__(world, router, tech=tech, meter=meter)
        self.stream = ContactStream(world, self.tech, self.stores,
                                    callback=self._on_event)
        for event in self.stream.initial:
            self.contact_up(event.node_a, event.node_b)

    def _on_event(self, event: ConnectivityEvent) -> None:
        self.wakeups += 1
        if event.kind == LINK_UP:
            self.contact_up(event.node_a, event.node_b)
        else:
            self.contact_down(event.node_a, event.node_b)

    def detach(self) -> None:
        """Cancel every watch (measurement finished).  Idempotent."""
        self.stream.detach()


class PollingDtnOverlay(DtnPlane):
    """The 1 s polling oracle: adjacency re-derived every tick.

    Kept as the baseline the event-driven overlay is gated against
    (``bench_dtn_delivery``: ≥ 5× fewer wakeups at N = 500) and as the
    semantic cross-check (same delivered bundles on contacts longer
    than the poll interval; tests assert it).  Each tick charges one
    wakeup per live node — every node's forwarder ran, found (mostly)
    nothing, and went back to sleep, exactly the cost profile the
    event-driven design removes.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 meter: TrafficMeter | None = None):
        super().__init__(world, router, tech=tech, meter=meter)
        self._stopped = False
        for first, second in self._pairs_in_range():
            self.contact_up(first, second)
        self._process = self.sim.spawn(self._poll_loop(),
                                       name="dtn-polling-oracle")

    def _pairs_in_range(self):
        names = list(self.stores)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                if self.world.in_range(first, second, self.tech):
                    yield (first, second)

    def _poll_loop(self):
        while not self._stopped:
            yield self.sim.timeout(POLL_INTERVAL_S)
            if self._stopped:
                return
            self.tick()

    def tick(self) -> None:
        """One polling round: wake every forwarder, diff adjacencies."""
        world = self.world
        live = self.live_nodes()
        self.wakeups += len(live)
        fresh: dict[str, set[str]] = {}
        for name in live:
            found = world.neighbors(name, self.tech)
            fresh[name] = {peer for peer in found if peer in self.stores}
        for name in live:
            before = self._adjacent[name]
            now = fresh[name]
            for peer in sorted(before - now):
                self.contact_down(name, peer)
            for peer in sorted(now - before):
                if name < peer:   # the peer's own pass covers the rest
                    self.contact_up(name, peer)

    def stop(self) -> None:
        """End the polling process after its current sleep."""
        self._stopped = True
