"""DTN routers: direct-delivery, epidemic, spray-and-wait, PRoPHET.

A router is the *policy* half of the store-carry-forward plane: given a
contact between a carrier and a peer, it decides which of the carrier's
bundles to transmit (and in what order — under bandwidth-limited
contacts the order *is* the ranked transmission queue) and what happens
to custody afterwards.  The *mechanics* — stores, contact events,
transfer scheduling, delivery bookkeeping — live in
:mod:`repro.dtn.forwarder` / :mod:`repro.dtn.capacity`.  One router
instance serves every node of a plane; the three classics are stateless
(all per-bundle state rides the bundle's ``copies`` field and the
stores' summary vectors), while :class:`Prophet` keeps the per-node
delivery-predictability tables that its control exchanges ship.

The baselines, in increasing overhead:

========================  ==========================================
``direct``                The source holds its bundle until it meets
                          the destination itself.  One transmission
                          per delivery; delivery ratio bounded by the
                          source–destination meeting probability.
``spray``                 Binary spray-and-wait (Spyropoulos et al.):
                          a bundle starts with ``copies`` tokens; a
                          custodian with ``c > 1`` tokens hands
                          ``floor(c/2)`` to a met peer; with one token
                          left it *waits* for the destination.
                          Bounded copies, most of epidemic's ratio.
``prophet``               Probabilistic routing using the history of
                          encounters and transitivity (Lindgren et
                          al.): relay only to peers whose delivery
                          predictability for the destination beats the
                          carrier's own; predictability ages over time
                          and propagates transitively.  Spends scarce
                          contact bytes only on *productive* copies.
``epidemic``              Flood with summary-vector dedup (Vahdat &
                          Becker): every contact sends everything the
                          peer has never seen.  Upper-bounds delivery
                          ratio under infinite bandwidth at maximal
                          overhead — and *wastes* tight byte budgets
                          on unproductive copies, which is exactly
                          what ``benchmarks/bench_contact_capacity.py``
                          measures against PRoPHET.
========================  ==========================================

A router is two rules: :meth:`Router.eligible` filters (may this
bundle go from this carrier to this peer?) and :meth:`Router.rank`
orders; :meth:`Router.offers`, the one offer pass, applies both to the
bundles the peer has not seen.  Transmission order within one contact
is deterministic.  The base rank sends bundles destined to the peer
first, then oldest — the same lexicographic-policy pattern as the
service plane's :func:`repro.core.routing.route_rank`; PRoPHET keeps
the destined-first rule but ranks relay traffic by *descending* peer
predictability, so the most deliverable copies cross the window first.
"""

from __future__ import annotations

import typing

from repro.dtn.bundle import Bundle

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dtn.store import MessageStore

#: Default spray-and-wait token budget per bundle.
DEFAULT_SPRAY_COPIES = 8


class Router:
    """Base router: subclasses override the policy decisions.

    ``eligible`` / ``rank`` decide what moves and in what order (the
    one offer pass, ``offers``, applies both), ``after_transmit`` what
    custody becomes; ``on_contact`` / ``control_bytes`` let stateful
    routers (PRoPHET) observe encounters and charge their control
    traffic — the bandwidth-limited plane deducts those bytes from the
    contact's budget before any data flows.
    """

    #: Registry key (``settings["routers"]`` values in specs).
    name = "base"

    #: Changes whenever router state that ``eligible`` or ``rank`` read
    #: may have changed.  Stateless routers keep 0: their offers depend
    #: only on the carrier's store and the peer's vector.
    version = 0

    def offers(self, store: "MessageStore", peer_id: str,
               peer_seen: frozenset[str]) -> list[Bundle]:
        """The carrier's bundles to transmit to ``peer_id``, in order.

        The bundles missing from ``peer_seen`` (the peer's summary
        vector — no router ever offers a bundle the peer has already
        seen, the dedup that keeps ``DtnCounters.duplicates`` at zero)
        that pass :meth:`eligible`, sorted by :meth:`rank`.  The order
        is the ranked transmission queue a bandwidth-limited contact
        drains front-first.  The one offer pass of every router.
        O(n log n) in stored bundles.
        """
        carrier, eligible, rank = store.node_id, self.eligible, self.rank
        offered = [bundle for bundle in store.bundles()
                   if bundle.bundle_id not in peer_seen
                   and eligible(carrier, bundle, peer_id)]
        offered.sort(key=lambda bundle: rank(bundle, peer_id))
        return offered

    def eligible(self, carrier: str, bundle: Bundle, peer_id: str) -> bool:
        """May ``carrier`` transmit ``bundle`` to ``peer_id``?  Policy
        hook."""
        raise NotImplementedError

    def rank(self, bundle: Bundle, peer_id: str) -> tuple:
        """Send-order key of an eligible bundle, smaller first.

        Destined-to-peer before relay traffic, then older creation
        instants, then bundle id — mirroring the route ranking's "most
        valuable first" shape (see :func:`repro.core.routing.
        route_rank`).
        """
        return (0 if bundle.destination == peer_id else 1,
                bundle.created_at, bundle.bundle_id)

    def after_transmit(self, store: "MessageStore", bundle: Bundle,
                       peer_id: str, now: float) -> Bundle:
        """Settle custody after a copy went out; returns the peer's copy.

        Called once per transmission.  Default: delivery to the
        destination releases the carrier's custody (the contact is the
        acknowledgement); a relay leaves the carrier's copy untouched.
        """
        if bundle.destination == peer_id:
            store.remove(bundle.bundle_id)
        return bundle

    def on_contact(self, node_a: str, node_b: str, now: float) -> None:
        """Observe a contact opening between two plane nodes.

        Called by the forwarder once per contact-up, *before* any
        exchange, with ``now`` in sim-seconds.  Stateless routers
        ignore it; PRoPHET updates both nodes' predictability tables
        here (encounter + transitivity).
        """

    def control_bytes(self, sender: str, receiver: str) -> int:
        """Router control payload ``sender`` ships when a contact opens.

        Bytes *beyond* the summary vectors — e.g. PRoPHET's
        predictability vector.  Called once per direction.  The
        infinite-bandwidth plane meters them as ``dtn-control``; the
        bandwidth-limited plane additionally charges both directions
        against the contact's byte budget, so chatty routing protocols
        pay for their own gossip.  O(1) for the stateless baselines
        (0 bytes).
        """
        return 0

    def on_crash(self, node_id: str) -> None:
        """A plane node suffered full state loss (crash-reboot fault).

        Called by the forwarder's fault hook alongside the store wipe.
        Stateless routers have nothing to forget; PRoPHET drops the
        node's predictability table — a rebooted node relearns its
        environment from scratch.
        """


class DirectDelivery(Router):
    """Source-only custody: transmit only to the destination itself."""

    name = "direct"

    def eligible(self, carrier: str, bundle: Bundle, peer_id: str) -> bool:
        return bundle.destination == peer_id


class Epidemic(Router):
    """Flood every contact, deduplicated by summary vectors."""

    name = "epidemic"

    def eligible(self, carrier: str, bundle: Bundle, peer_id: str) -> bool:
        return True   # the summary vector already filtered seen ids


class SprayAndWait(Router):
    """Binary spray-and-wait with a fixed token budget per bundle.

    ``copies`` is the budget stamped on bundles at injection (the plane
    reads :attr:`initial_copies`); custody splits binarily on each
    relay.  Token conservation — the sum of tokens over all custodians
    of one bundle never exceeds the budget — is asserted by the tests.
    """

    name = "spray"

    def __init__(self, copies: int = DEFAULT_SPRAY_COPIES):
        if copies < 1:
            raise ValueError(f"spray copies must be >= 1: {copies}")
        self.initial_copies = copies

    def eligible(self, carrier: str, bundle: Bundle, peer_id: str) -> bool:
        # Delivery is always allowed; relaying needs spare tokens
        # (one-token custodians are in the wait phase).
        return bundle.destination == peer_id or bundle.copies > 1

    def after_transmit(self, store: "MessageStore", bundle: Bundle,
                       peer_id: str, now: float) -> Bundle:
        if bundle.destination == peer_id:
            store.remove(bundle.bundle_id)
            return bundle
        given = bundle.copies // 2
        kept = bundle.copies - given
        store.replace(bundle.with_copies(kept))
        return bundle.with_copies(given)


class Prophet(Router):
    """PRoPHET: probabilistic routing by encounter history (RFC 6693).

    Each node keeps a **delivery predictability** ``P(node, dest) ∈
    [0, 1)`` for every destination it has learned about.  Three update
    rules, applied at contact instants (all state changes are
    event-driven — nothing ages on a timer):

    * **encounter** — meeting ``b`` directly:
      ``P(a,b) ← P(a,b) + (1 − P(a,b)) · P_ENCOUNTER``;
    * **aging** — before any read/update at time ``t``:
      ``P ← P · GAMMA^(t − last_update)`` (lazy, per node);
    * **transitivity** — having just met ``b``:
      ``P(a,c) ← max(P(a,c), P(a,b) · P(b,c) · BETA)`` for every ``c`` in
      ``b``'s table (both directions — the tables were just exchanged).

    Forwarding is GRTR: relay a bundle to a peer only when the peer's
    predictability for its destination *strictly beats* the carrier's
    (delivery to the destination itself is always allowed); relays keep
    the carrier's copy, like epidemic.  Relay traffic ranks by
    descending peer predictability (destined bundles still first), so a
    tight contact window carries the most deliverable copies first.

    The tables are shipped at every contact as router control traffic
    — :meth:`control_bytes` charges ``CONTROL_ENTRY_BYTES`` per table
    entry in each direction, which the bandwidth-limited plane deducts
    from the contact's byte budget (PRoPHET pays for its gossip).

    One instance serves the whole plane (the tables live here, keyed by
    node id).  All updates are deterministic functions of the contact
    stream, so sweep output stays byte-identical across workers.
    """

    name = "prophet"

    #: Bytes per (destination id, predictability) control-vector entry.
    CONTROL_ENTRY_BYTES = 12

    #: Encounter boost, transitivity scaling and aging base per second:
    #: the values of Lindgren et al.'s evaluation.
    P_ENCOUNTER = 0.75
    BETA = 0.25
    GAMMA = 0.98

    def __init__(self):
        self._tables: dict[str, dict[str, float]] = {}
        self._aged_at: dict[str, float] = {}
        self.version = 0

    # -- table bookkeeping --------------------------------------------
    def _table(self, node_id: str) -> dict[str, float]:
        return self._tables.setdefault(node_id, {})

    def _age(self, node_id: str, now: float) -> None:
        """Lazy aging: decay the whole table to ``now``.  O(entries)."""
        last = self._aged_at.get(node_id)
        self._aged_at[node_id] = now
        if last is None or now <= last:
            return
        factor = self.GAMMA ** (now - last)
        table = self._table(node_id)
        for dest in table:
            table[dest] *= factor

    def predictability(self, node_id: str, dest: str) -> float:
        """``P(node, dest)`` as last aged; 0.0 for unknown pairs.  O(1)."""
        return self._tables.get(node_id, {}).get(dest, 0.0)

    def table_size(self, node_id: str) -> int:
        """Entries in a node's predictability table (control cost).  O(1)."""
        return len(self._tables.get(node_id, {}))

    # -- router hooks --------------------------------------------------
    def on_contact(self, node_a: str, node_b: str, now: float) -> None:
        """Encounter + transitivity updates for both endpoints.

        O(|table_a| + |table_b|).  Deterministic: tables iterate in
        insertion order, and updates commute per destination (max).
        """
        self.version += 1
        self._age(node_a, now)
        self._age(node_b, now)
        table_a, table_b = self._table(node_a), self._table(node_b)
        for table, peer in ((table_a, node_b), (table_b, node_a)):
            old = table.get(peer, 0.0)
            table[peer] = old + (1.0 - old) * self.P_ENCOUNTER
        # Transitivity over the *post-encounter* tables, both ways.
        p_ab, p_ba = table_a[node_b], table_b[node_a]
        for mine, theirs, p_link, me, other in (
                (table_a, table_b, p_ab, node_a, node_b),
                (table_b, table_a, p_ba, node_b, node_a)):
            for dest, p_remote in list(theirs.items()):
                if dest == me:
                    continue
                relayed = p_link * p_remote * self.BETA
                if relayed > mine.get(dest, 0.0):
                    mine[dest] = relayed

    def control_bytes(self, sender: str, receiver: str) -> int:
        """The sender's predictability vector, 12 B per entry.  O(1)."""
        return self.CONTROL_ENTRY_BYTES * self.table_size(sender)

    def on_crash(self, node_id: str) -> None:
        """Crash-reboot: the node's predictability table dies with it.

        Peers keep *their* predictabilities toward the crashed node —
        they have no way to know it rebooted amnesiac; those entries
        age out by ``GAMMA`` as usual.  O(1).
        """
        self.version += 1
        self._tables.pop(node_id, None)
        self._aged_at.pop(node_id, None)

    # -- forwarding policy --------------------------------------------
    def eligible(self, carrier: str, bundle: Bundle, peer_id: str) -> bool:
        """GRTR: the peer is the destination, or its predictability for
        the destination strictly beats the carrier's.  O(1)."""
        destination = bundle.destination
        return (destination == peer_id
                or self.predictability(peer_id, destination)
                > self.predictability(carrier, destination))

    def rank(self, bundle: Bundle, peer_id: str) -> tuple:
        """Destined-to-peer bundles lead (oldest first); relays follow
        by descending ``P(peer, destination)``, ties broken by creation
        instant then bundle id.  O(1)."""
        if bundle.destination == peer_id:
            return (0, 0.0, bundle.created_at, bundle.bundle_id)
        return (1, -self.predictability(peer_id, bundle.destination),
                bundle.created_at, bundle.bundle_id)


def make_router(name: str, spray_copies: int = DEFAULT_SPRAY_COPIES
                ) -> Router:
    """Instantiate a router by registry name.

    ``spray_copies`` only affects ``"spray"``.  A fresh instance per
    plane — PRoPHET's tables must never be shared across planes.
    """
    if name == DirectDelivery.name:
        return DirectDelivery()
    if name == Epidemic.name:
        return Epidemic()
    if name == SprayAndWait.name:
        return SprayAndWait(copies=spray_copies)
    if name == Prophet.name:
        return Prophet()
    raise KeyError(f"unknown DTN router {name!r}; known: "
                   f"['direct', 'epidemic', 'prophet', 'spray']")
