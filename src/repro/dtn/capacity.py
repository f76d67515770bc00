"""Bandwidth-limited contacts: transfers scheduled *within* the window.

The PR 4 forwarder (:mod:`repro.dtn.forwarder`) moves every bundle the
instant a contact opens — the infinite-contact-bandwidth baseline.
Real mobile links exist only for the seconds two coverage disks
overlap, and carry ``window × data_rate`` bytes at most.  This module
replaces the instantaneous cascade with a **transfer schedule**:

* **byte budget** — at contact-up the plane asks its contact stream
  (:meth:`~repro.radio.bus.ContactStream.window`, one analytic solve)
  for the predicted LinkDown instant and prices the whole contact in
  closed form:
  ``budget = ⌊(t_down − t_up) × data_rate⌋`` (the technology's
  :attr:`~repro.radio.technologies.Technology.data_rate_Bps`, or the
  plane's explicit override).  Settled in-range pairs get an unbounded
  budget (their contact never ends);
* **ranked transmission queue** — the router's ``offers`` order *is*
  the queue (PRoPHET ranks relays by peer predictability, the classics
  by destined-first/oldest-first); the link is serialised, one bundle
  in flight per contact, each leg costing
  ``base_latency + bytes / rate`` sim-seconds and completing via one
  scheduled kernel event (``Simulator.call_at`` — no polling);
* **control traffic costs capacity** — summary vectors and router
  control vectors (PRoPHET's predictability tables) are charged
  against the budget *first* and delay the first data leg by their
  airtime;
* **partial-transfer resume** — a transfer cut by the window edge (or
  pre-capped by the remaining budget) credits the bytes that made it
  onto the air to the *receiver's* fragment ledger
  (:meth:`~repro.dtn.store.MessageStore.record_partial`); any later
  contact — with any custodian of the bundle — resumes from that
  offset (counted ``transfers_truncated``);
* **per-link in-flight accounting** — a bundle already in flight to a
  receiver on one link is never started on a parallel link, so
  concurrent contacts spend their budgets on *distinct* copies;
* **churn safety** — an in-flight transfer whose endpoint is powered
  off / removed is cancelled, credits nothing, and is counted
  ``transfers_cancelled``; sessions naming the dead are closed before
  the base-class retirement runs.

Wakeup discipline is inherited: ``wakeups`` counts *contact-event*
callbacks only.  Transfer completions are self-scheduled kernel events
(the forwarder knows exactly when its own transmission ends), so a
fully settled world still shows ``wakeups == 0`` while bundles stream
over the seeded adjacency — asserted in ``tests/test_dtn_capacity.py``.

Modelling notes: links are pair-local (no shared-medium contention —
parallel contacts of one node each run at full rate, as with
per-pair-channel radios), and queues re-rank at contact and transfer
instants only (a predictability change elsewhere does not wake an idle
session).  The per-contact byte-budget invariant — *no contact ever
moves more than its window × rate* — is property-tested across all
technologies.

Units: metres / sim-seconds / bytes throughout.
"""

from __future__ import annotations

import math
import typing

from repro.core.buffering import EVICT_OLDEST
from repro.dtn.bundle import Bundle
from repro.dtn.forwarder import DtnOverlay
from repro.dtn.routing import Router
from repro.metrics.counters import TrafficMeter
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.world import World
    from repro.sim.kernel import ScheduledCall


class Transfer:
    """One bundle leg in flight over an open contact.

    ``phy_tx`` is the leg's on-air registration when a lossy PHY plane
    is installed (:mod:`repro.radio.phy`); its fate is resolved at the
    completion instant.  A leg cancelled mid-air (churn, truncation,
    detach) abandons its registration unresolved — the air was occupied
    either way.
    """

    __slots__ = ("sender", "receiver", "bundle", "send_bytes",
                 "started_at", "done_at", "handle", "phy_tx")

    def __init__(self, sender: str, receiver: str, bundle: Bundle,
                 send_bytes: int, started_at: float, done_at: float,
                 handle: "ScheduledCall"):
        self.sender = sender
        self.receiver = receiver
        self.bundle = bundle
        self.send_bytes = send_bytes
        self.started_at = started_at
        self.done_at = done_at
        self.handle = handle
        self.phy_tx = None


class ContactSession:
    """One open contact's budget and serialised transfer state.

    ``closes_at`` is the predicted LinkDown instant (``inf`` for
    settled pairs); ``budget_bytes is None`` means unbounded.
    ``next_free`` is the link-serialisation cursor: the instant the
    air is free again (control vectors and every transfer leg advance
    it).
    """

    __slots__ = ("node_a", "node_b", "opened_at", "closes_at",
                 "budget_bytes", "used_bytes", "next_free", "transfer")

    def __init__(self, node_a: str, node_b: str, opened_at: float,
                 closes_at: float, budget_bytes: int | None):
        self.node_a = node_a
        self.node_b = node_b
        self.opened_at = opened_at
        self.closes_at = closes_at
        self.budget_bytes = budget_bytes
        self.used_bytes = 0
        self.next_free = opened_at
        self.transfer: Transfer | None = None

    def budget_left(self) -> float:
        """Unspent budget bytes (``inf`` when unbounded).  O(1)."""
        if self.budget_bytes is None:
            return math.inf
        return max(0, self.budget_bytes - self.used_bytes)


#: `_close_session` modes.
_CLOSE_DOWN = "down"        # link closed: truncate + credit airtime
_CLOSE_CHURN = "churn"      # endpoint died: cancel, credit nothing
_CLOSE_DETACH = "detach"    # measurement over: silent teardown


class BandwidthDtnOverlay(DtnOverlay):
    """The event-driven forwarder under finite contact bandwidth.

    Same contact stream as :class:`~repro.dtn.forwarder.DtnOverlay`
    (seeded contact-up for pairs already in range at attach), but
    contacts open a :class:`ContactSession` instead of cascading
    instantaneously.
    ``data_rate_Bps`` overrides the technology's derived rate (tests
    and constrained-regime sweeps); the default prices contacts at
    :attr:`Technology.data_rate_Bps`.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 nodes: typing.Sequence[str] | None = None,
                 capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST,
                 meter: TrafficMeter | None = None,
                 data_rate_Bps: float | None = None):
        tech_obj = get_technology(tech) if isinstance(tech, str) else tech
        if data_rate_Bps is None:
            data_rate_Bps = tech_obj.data_rate_Bps
        if data_rate_Bps <= 0:
            raise ValueError(f"data rate must be positive: {data_rate_Bps}")
        self.data_rate_Bps = float(data_rate_Bps)
        self._sessions: dict[tuple[str, str], ContactSession] = {}
        # node -> its open session pairs (contact_up/_close_session).
        self._node_sessions: dict[str, set[tuple[str, str]]] = {}
        self._inbound: dict[str, set[str]] = {}
        #: ``_pump`` entries (a work counter the capacity bench gates).
        self.pump_passes = 0
        # super().__init__ seeds contact_up for pairs already in range,
        # so every attribute above must exist first.
        super().__init__(world, router, tech=tech_obj, nodes=nodes,
                         capacity_bytes=capacity_bytes, policy=policy,
                         meter=meter)

    # ------------------------------------------------------------------
    # capacity model
    # ------------------------------------------------------------------
    def airtime_s(self, size_bytes: int) -> float:
        """Link time one ``size_bytes`` leg occupies: framing latency
        plus payload at the plane's data rate.  O(1)."""
        return self.tech.base_latency_s + size_bytes / self.data_rate_Bps

    # ------------------------------------------------------------------
    # contact lifecycle
    # ------------------------------------------------------------------
    def contact_up(self, a: str, b: str) -> None:
        """Open a session: price the window, charge control, pump."""
        if a in self._dead or b in self._dead:
            return
        if a not in self.stores or b not in self.stores:
            return
        pair = (a, b) if a < b else (b, a)
        if pair in self._sessions:
            return
        now = self.sim.now
        self.stores[a].expire(now)
        self.stores[b].expire(now)
        control = self._open_contact(a, b, airtime_s=self.airtime_s)
        closes_at = self.stream.window(pair[0], pair[1], now)
        budget = (None if closes_at == math.inf
                  else self.tech.contact_capacity_bytes(
                      closes_at - now, self.data_rate_Bps))
        session = ContactSession(pair[0], pair[1], now, closes_at, budget)
        session.used_bytes = control
        session.next_free = now + self.airtime_s(control)
        self._sessions[pair] = session
        for node in pair:
            self._node_sessions.setdefault(node, set()).add(pair)
        self.counters.bytes_offered += self._offered_bytes(session)
        self._pump(session)

    def contact_down(self, a: str, b: str) -> None:
        """The window closed: truncate any in-flight leg, credit the
        bytes that made it onto the air, drop the session.  O(1) plus
        the fragment credit."""
        self._close_session((a, b) if a < b else (b, a), _CLOSE_DOWN)
        super().contact_down(a, b)

    def retire_node(self, node_id: str) -> None:
        """Churn: cancel every session (and in-flight transfer) naming
        the node before the base class drops its custody."""
        if node_id in self._dead or node_id not in self.stores:
            return
        for pair in sorted(self._node_sessions.get(node_id, ())):
            self._close_session(pair, _CLOSE_CHURN)
        super().retire_node(node_id)

    def on_crash(self, node_id: str) -> None:
        """Crash fault: kill every in-flight transfer naming the node
        (counted ``transfers_cancelled``, nothing credited — the
        receiver never got the bytes) before the base state loss."""
        if node_id not in self.stores or node_id in self._dead:
            return
        for pair in sorted(self._node_sessions.get(node_id, ())):
            self._close_session(pair, _CLOSE_CHURN)
        super().on_crash(node_id)

    def detach(self) -> None:
        """Cancel watches, sessions and in-flight legs.  Idempotent."""
        for pair in sorted(self._sessions):
            self._close_session(pair, _CLOSE_DETACH)
        super().detach()

    def _close_session(self, pair: tuple[str, str], mode: str) -> None:
        session = self._sessions.pop(pair, None)
        if session is None:
            return
        for node in pair:
            pairs = self._node_sessions[node]
            pairs.discard(pair)
            if not pairs:
                del self._node_sessions[node]
        transfer = session.transfer
        session.transfer = None
        if transfer is None:
            self._report_contact(session)
            return
        transfer.handle.cancel()
        self._release_inbound(transfer)
        if mode == _CLOSE_DETACH:
            self._report_contact(session)
            return
        if mode == _CLOSE_CHURN:
            self.counters.transfers_cancelled += 1
            self._report_contact(session)
            return
        # Link-down truncation: credit the airtime actually used.  A
        # leg still queued behind the control exchange (start in the
        # future) or cut inside the framing latency moved nothing —
        # that is not a truncated transfer, it simply never happened.
        elapsed = self.sim.now - transfer.started_at
        payload_s = elapsed - self.tech.base_latency_s
        credited = min(transfer.send_bytes,
                       max(0, int(payload_s * self.data_rate_Bps)))
        if credited <= 0:
            self._report_contact(session)
            return
        session.used_bytes += credited
        self.counters.bytes_transferred += credited
        if self.meter is not None:
            self.meter.count(transfer.sender, "dtn-data", credited)
        receiver_store = self.stores[transfer.receiver]
        if not receiver_store.has_seen(transfer.bundle.bundle_id):
            # A receiver that already holds/delivered the bundle (a
            # parallel contact won the race) has no use for the prefix
            # — recording it would leak a never-cleared ledger entry.
            receiver_store.record_partial(transfer.bundle.bundle_id,
                                          credited)
        self.counters.transfers_truncated += 1
        self._report_contact(session)

    def _report_contact(self, session: ContactSession) -> None:
        """Telemetry hook: one window's bytes-used vs budget.

        Called once per session close, after any truncation credit.
        The session is already popped, so bumping ``used_bytes`` here
        never feeds back into budget arithmetic.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.contact_bytes(session.node_a, session.node_b,
                                    self.tech.name, session.used_bytes,
                                    session.budget_bytes)

    # ------------------------------------------------------------------
    # the transfer schedule
    # ------------------------------------------------------------------
    def _cascade_from(self, origin: str) -> None:
        """Injections pump open sessions instead of cascading."""
        self._pump_node(origin)

    def _pump_node(self, node_id: str) -> None:
        """Re-evaluate every idle session touching ``node_id``, in pair
        order: O(k log k) for the node's k sessions in the index.  A
        session with a leg in flight is skipped (``_pump`` would return
        on it at once)."""
        pairs = self._node_sessions.get(node_id)
        if not pairs:
            return
        for pair in sorted(pairs):
            session = self._sessions.get(pair)
            if session is not None and session.transfer is None:
                self._pump(session)

    def _release_inbound(self, transfer: Transfer) -> None:
        """Forget ``transfer``'s bundle as in flight to its receiver,
        dropping the receiver's entry once nothing is inbound."""
        inbound = self._inbound.get(transfer.receiver)
        if inbound is not None:
            inbound.discard(transfer.bundle.bundle_id)
            if not inbound:
                del self._inbound[transfer.receiver]

    def _offered_bytes(self, session: ContactSession) -> int:
        """Remaining bytes both directions want to ship right now."""
        total = 0
        for sender, receiver in ((session.node_a, session.node_b),
                                 (session.node_b, session.node_a)):
            receiver_store = self.stores[receiver]
            for bundle in self.router.offers(
                    self.stores[sender], receiver,
                    self._peer_vector(receiver, sender)):
                total += max(0, bundle.size_bytes
                             - receiver_store.partial_received(
                                 bundle.bundle_id))
        return total

    def _next_candidate(self, session: ContactSession
                        ) -> tuple[str, str, Bundle] | None:
        """Top-ranked startable leg across both directions, or None.

        Per direction the router's first offer not already in flight to
        that receiver; directions tie-break on (queue rank, sender).
        O(n log n) in the busier store: each direction builds the full
        ranked ``offers`` list to use its first startable bundle, once
        per ``_pump`` turn on an idle session.
        """
        best: tuple[tuple[int, str, str], str, str, Bundle] | None = None
        for sender, receiver in ((session.node_a, session.node_b),
                                 (session.node_b, session.node_a)):
            if sender in self._dead or receiver in self._dead:
                continue
            if (self.faults is not None
                    and not self.faults.can_transmit(sender, receiver)):
                continue  # deaf/mute/jammed direction: no leg starts
            inbound = self._inbound.get(receiver, ())
            offers = self.router.offers(
                self.stores[sender], receiver,
                self._peer_vector(receiver, sender))
            for rank, bundle in enumerate(offers):
                if bundle.bundle_id in inbound:
                    continue
                key = (rank, sender, bundle.bundle_id)
                if best is None or key < best[0]:
                    best = (key, sender, receiver, bundle)
                break   # only each direction's best matters
        if best is None:
            return None
        return best[1], best[2], best[3]

    def _pump(self, session: ContactSession) -> None:
        """Start the next transfer leg if the link is idle.  One kernel
        event per leg (the completion) — no polling.  A pick whose
        fragment is already complete (paid for on an earlier contact
        whose custody could not settle) settles at zero byte cost and
        the queue re-ranks."""
        self.pump_passes += 1
        while True:
            if session.transfer is not None:
                return
            if self._sessions.get((session.node_a, session.node_b)) \
                    is not session:
                return   # closed (or replaced) while queued for a pump
            pick = self._next_candidate(session)
            if pick is None:
                return
            sender, receiver, bundle = pick
            remaining = (bundle.size_bytes
                         - self.stores[receiver].partial_received(
                             bundle.bundle_id))
            if remaining <= 0:
                # The bytes already crossed: hand custody over now.
                self._settle_custody(sender, receiver, bundle)
                self._pump_node(receiver)
                self._pump_node(sender)
                continue   # re-rank; every settle outcome is progress
            send_bytes = int(min(remaining, session.budget_left()))
            if send_bytes <= 0:
                return   # budget exhausted: the session is saturated
            start = max(self.sim.now, session.next_free)
            done_at = start + self.airtime_s(send_bytes)
            pair = (session.node_a, session.node_b)
            handle = self.sim.call_at(
                done_at, lambda p=pair: self._complete(p),
                name=f"dtn-xfer:{sender}->{receiver}")
            transfer = Transfer(sender, receiver, bundle,
                                send_bytes, start, done_at, handle)
            if self.phy is not None:
                transfer.phy_tx = self.phy.begin(
                    sender, receiver, send_bytes, tech=self.tech,
                    started_at=start, ends_at=done_at)
            session.transfer = transfer
            session.next_free = done_at
            self._inbound.setdefault(receiver, set()).add(
                bundle.bundle_id)
            return

    def _settle_custody(self, sender: str, receiver: str,
                        bundle: Bundle) -> bool:
        """Hand over custody of a fully received bundle.

        Re-fetches the sender's *current* copy (spray token counts may
        have changed while this leg was in flight — settling from a
        stale snapshot would mint tokens) and re-checks the router
        still offers it (a concurrent leg may have spent the last
        spare spray token), then releases the receiver's fragment and
        applies the router's custody rules.  Returns False when the
        handoff cannot happen — sender no longer carries the bundle
        (TTL sweep or capacity eviction mid-flight) or the current
        copy is no longer eligible: the fragment then stays for a
        future resume from another custodian.  An *expired* current
        copy is removed from the sender (counted ``expired``) so a
        dead bundle can never be re-offered forever.  O(n log n) in
        the sender's store for the eligibility re-check.
        """
        now = self.sim.now
        current = self.stores[sender].get(bundle.bundle_id)
        if current is None:
            return False
        receiver_store = self.stores[receiver]
        if current.expired(now):
            receiver_store.clear_partial(bundle.bundle_id)
            self.stores[sender].remove(bundle.bundle_id)
            self.counters.expired += 1
            return True
        if receiver_store.has_seen(bundle.bundle_id):
            receiver_store.clear_partial(bundle.bundle_id)
            self.counters.duplicates += 1
            return True
        if not any(offer.bundle_id == bundle.bundle_id
                   for offer in self.router.offers(
                       self.stores[sender], receiver,
                       receiver_store.summary_vector())):
            return False
        receiver_store.clear_partial(bundle.bundle_id)
        self.counters.transmissions += 1
        peer_copy = self.router.after_transmit(
            self.stores[sender], current, receiver, now)
        if current.destination == receiver:
            self._deliver(current, sender, receiver)
        else:
            receiver_store.add(peer_copy, now)
        return True

    def _complete(self, pair: tuple[str, str]) -> None:
        """One leg finished: credit bytes, settle custody, pump on."""
        session = self._sessions.get(pair)
        if session is None or session.transfer is None:
            return   # cancelled race; handles are cancelled with sessions
        transfer = session.transfer
        session.transfer = None
        sender, receiver = transfer.sender, transfer.receiver
        bundle = transfer.bundle
        self._release_inbound(transfer)
        session.used_bytes += transfer.send_bytes
        self.counters.bytes_transferred += transfer.send_bytes
        if self.meter is not None:
            self.meter.count(sender, "dtn-data", transfer.send_bytes)
        if transfer.phy_tx is not None \
                and not self.phy.resolve(transfer.phy_tx):
            # The leg faded or collided at the receiver: airtime, budget
            # and meter were all spent, but nothing usable arrived — no
            # fragment credit, no custody movement.  Pumping again is
            # the natural retry: the bundle is still the top offer, and
            # each retry burns more of the finite window.
            self._pump(session)
            self._pump_node(receiver)
            self._pump_node(sender)
            return
        total = self.stores[receiver].record_partial(bundle.bundle_id,
                                                     transfer.send_bytes)
        if total < bundle.size_bytes:
            # The budget pre-capped this leg: a deliberate partial.
            self.counters.transfers_truncated += 1
        elif not self._settle_custody(sender, receiver, bundle):
            # The custodian lost the bundle mid-flight: no handoff.
            self.counters.transfers_cancelled += 1
        self._pump(session)
        # Fresh custody (or freed tokens) may unblock parallel contacts.
        self._pump_node(receiver)
        self._pump_node(sender)
