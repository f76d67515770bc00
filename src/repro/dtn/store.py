"""Per-node message stores: the bundles a node holds in custody.

Each DTN node owns a :class:`MessageStore`, which keeps:

* **custody** — the carried bundles, keyed by id in custody order;
* **TTL expiry** — every bundle carries its own lifetime and is dropped
  by *lazy* sweeps (:meth:`~MessageStore.expire`) at contact/send
  instants, so expiry costs no timer wakeups; before
  :attr:`~MessageStore.next_expiry` a sweep is one comparison;
* **summary vectors** — the epidemic-routing dedup set: ids this node
  currently carries *plus* ids it has already seen (received, relayed
  onward, or delivered as destination), so a contact never re-sends
  what the peer already processed;
* **a version** — :attr:`~MessageStore.version` changes whenever the
  carried bundles or the summary vector may have, so the bandwidth
  plane's session queue (:meth:`~repro.dtn.capacity.
  BandwidthDtnOverlay._queue`) knows when to re-rank;
* **a listener** — told of every change to the carried ids and to the
  summary vector, so the plane's news ledger (:class:`NewsLedger`,
  below) stays exact whoever changed the store — the ledger says
  whether a node carries anything one of its contacts has not seen;
* **partial fragments** — receiver-side byte counts of transfers the
  bandwidth-limited plane (:mod:`repro.dtn.capacity`) had to truncate
  at a window edge.  The fragment belongs to the *receiver* (reactive
  fragmentation, RFC 4838 flavour): any later custodian of the same
  bundle can resume from the recorded offset, including after the
  original sender died.

Custody has no byte budget: a store never evicts, so the plane-wide
:class:`~repro.metrics.counters.DtnCounters` ``evicted`` stays 0.  All
other counts feed those counters.  Units: bytes, sim-seconds.
"""

from __future__ import annotations

import math

from repro.dtn.bundle import Bundle
from repro.metrics.counters import DtnCounters


class MessageStore:
    """One node's bundle custody: a keyed, TTL-aware, unbounded store.

    Custody order is preserved (offers iterate oldest-first).  All
    operations are O(1) amortised except the sweeps and scans, which are
    O(n) in stored bundles; an :meth:`expire` with nothing due is O(1).
    """

    def __init__(self, node_id: str, counters: DtnCounters | None = None):
        self.node_id = node_id
        self.counters = counters if counters is not None else DtnCounters()
        #: bundle id → carried bundle, in custody order.
        self._bundles: dict[str, Bundle] = {}
        #: Every bundle id this node has ever held or delivered — the
        #: summary-vector memory that prevents epidemic re-infection.
        self._seen: set[str] = set()
        #: bundle id → bytes received so far of a truncated transfer
        #: (the partial-resume ledger; cleared on completed custody).
        self._partials: dict[str, int] = {}
        #: Bumped by every mutation that may change :meth:`bundles` or
        #: :meth:`summary_vector` (fragments do not count).  Equal
        #: versions mean both are unchanged; only the bandwidth plane's
        #: session queue reads it.
        self.version = 0
        #: No carried bundle expires before this instant (``inf``: none
        #: can), so :meth:`expire` is a no-op until then.  Read-only for
        #: callers.  A conservative bound: add() and replace() lower it,
        #: a sweep that runs makes it exact, remove() and drop_all() may
        #: leave it stale (too low, which only costs a sweep that finds
        #: nothing).
        self.next_expiry = math.inf
        #: Told of every change to the carried ids
        #: (``listener.custody(node_id, bundle_id, +1 | -1)``) and to
        #: the summary vector (``listener.seen(...)``), after the
        #: store changed; ``None`` for a standalone store.
        self.listener = None

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, bundle_id: str) -> bool:
        return bundle_id in self._bundles

    def bundles(self) -> list[Bundle]:
        """Carried bundles in custody order."""
        return list(self._bundles.values())

    def get(self, bundle_id: str) -> Bundle | None:
        """The carried bundle under ``bundle_id``, or None.  O(1)."""
        return self._bundles.get(bundle_id)

    def has_seen(self, bundle_id: str) -> bool:
        """True if this node ever held or delivered the bundle.  O(1)."""
        return bundle_id in self._seen

    def mark_seen(self, bundle_id: str) -> None:
        """Record an id in the summary vector without taking custody.

        The destination marks delivered bundles this way, so later
        custodians of the same bundle never re-offer it.  O(1).
        """
        if bundle_id not in self._seen:
            self._seen.add(bundle_id)
            self.version += 1
            if self.listener is not None:
                self.listener.seen(self.node_id, bundle_id, 1)

    def summary_vector(self) -> frozenset[str]:
        """The epidemic dedup set: carried ∪ previously-seen ids."""
        return frozenset(self._seen)

    def seen_count(self) -> int:
        """``len(summary_vector())`` without copying the set.  O(1)."""
        return len(self._seen)

    # ------------------------------------------------------------------
    # partial fragments (bandwidth-limited transfers)
    # ------------------------------------------------------------------
    def partial_received(self, bundle_id: str) -> int:
        """Bytes of ``bundle_id`` already received across truncated
        transfers (0 when no fragment is held).  O(1)."""
        return self._partials.get(bundle_id, 0)

    def record_partial(self, bundle_id: str, received_bytes: int) -> int:
        """Credit ``received_bytes`` more of a truncated transfer.

        Returns the accumulated total.  Any custodian may contribute —
        the fragment is keyed by bundle id, not by sender.  O(1);
        negative credits raise.
        """
        if received_bytes < 0:
            raise ValueError(f"negative credit: {received_bytes}")
        total = self._partials.get(bundle_id, 0) + received_bytes
        self._partials[bundle_id] = total
        return total

    def clear_partial(self, bundle_id: str) -> None:
        """Forget a fragment (transfer completed or abandoned).  O(1)."""
        self._partials.pop(bundle_id, None)

    # ------------------------------------------------------------------
    def add(self, bundle: Bundle, now: float) -> bool:
        """Take custody of ``bundle``; True if it is carried afterwards.

        An already-expired bundle is refused (counted ``expired``).
        Re-adding a carried id replaces the stored value in place, like
        :meth:`replace`.
        """
        if bundle.expired(now):
            self.counters.expired += 1
            return False
        self.version += 1
        bundle_id = bundle.bundle_id
        gained = bundle_id not in self._bundles
        unseen = bundle_id not in self._seen
        self._seen.add(bundle_id)
        self._bundles[bundle_id] = bundle
        if bundle.expires_at < self.next_expiry:
            self.next_expiry = bundle.expires_at
        listener = self.listener
        if listener is not None:
            if gained:
                listener.custody(self.node_id, bundle_id, 1)
            if unseen:
                listener.seen(self.node_id, bundle_id, 1)
        return True

    def replace(self, bundle: Bundle) -> None:
        """Update a carried bundle in place (spray-token bookkeeping).

        The bundle keeps its place in custody order, so a token update
        never rejuvenates it.
        """
        if bundle.bundle_id not in self._bundles:
            raise KeyError(f"{self.node_id} does not carry "
                           f"{bundle.bundle_id!r}")
        self.version += 1
        self._bundles[bundle.bundle_id] = bundle
        if bundle.expires_at < self.next_expiry:
            self.next_expiry = bundle.expires_at

    def remove(self, bundle_id: str) -> Bundle | None:
        """Release custody deliberately (delivered/acked).  O(1)."""
        bundle = self._bundles.pop(bundle_id, None)
        if bundle is not None:
            self.version += 1
            if self.listener is not None:
                self.listener.custody(self.node_id, bundle_id, -1)
        return bundle

    def expire(self, now: float) -> list[Bundle]:
        """Drop every bundle whose TTL has passed (lazy sweep).

        Returns the dropped bundles in custody order, counted
        ``expired``.  O(1) before :attr:`next_expiry`; otherwise one
        O(n) pass that also makes the bound exact again.
        """
        if now < self.next_expiry:
            return []
        dropped: list[Bundle] = []
        soonest = math.inf
        for bundle in self._bundles.values():
            if bundle.expired(now):
                dropped.append(bundle)
            elif bundle.expires_at < soonest:
                soonest = bundle.expires_at
        for bundle in dropped:
            del self._bundles[bundle.bundle_id]
        self.next_expiry = soonest
        if dropped:
            self.counters.expired += len(dropped)
            self.version += 1
            self._released(dropped)
        return dropped

    def drop_all(self) -> list[Bundle]:
        """Custodian death: every carried bundle is lost.  O(n).

        Counted ``dropped_dead`` — the custodian-death invariant (a
        bundle whose custodian crashed is never delivered from its lost
        copy) is observable through this counter.
        """
        victims = list(self._bundles.values())
        self._bundles.clear()
        self.counters.dropped_dead += len(victims)
        self._partials.clear()   # fragments die with the node
        self.version += 1
        self._released(victims)
        return victims

    def _released(self, bundles: list[Bundle]) -> None:
        """Tell the listener custody of ``bundles`` ended.  O(n)."""
        if self.listener is not None:
            for bundle in bundles:
                self.listener.custody(self.node_id, bundle.bundle_id, -1)

    def wipe(self) -> list[Bundle]:
        """Crash-reboot state loss: custody *and* memory are gone.

        :meth:`drop_all` plus clearing the summary vector — a rebooted
        node remembers nothing it ever carried, relayed or received.
        It can be re-infected with epidemic copies it already relayed
        and re-receive bundles it already got (the plane's delivery
        ledger still counts each bundle once — first arrival wins).
        Counted ``dropped_dead`` like any custodian death.  O(n).
        """
        victims = self.drop_all()   # bumps the version
        forgotten = self._seen
        self._seen = set()
        if self.listener is not None:
            for bundle_id in forgotten:
                self.listener.seen(self.node_id, bundle_id, -1)
        return victims

    def __repr__(self) -> str:
        return (f"<MessageStore {self.node_id} bundles={len(self)} "
                f"seen={len(self._seen)}>")


class NewsLedger:
    """Per node, the (contact, carried bundle) pairs that still lack news.

    ``lack[X]`` counts the pairs (P, b) where P is a current contact of
    X and b a bundle X carries that is missing from the summary vector
    X heard from P — every carried bundle while X is blind about P.  So
    ``lack[X] == 0`` means every contact of X has seen every bundle X
    carries, and an exchange from X would offer nothing (no router
    offers a seen bundle): the plane's one "nothing to offer" rule.
    A sweep only removes carried ids, so that stays true until X gains
    custody or a contact opens.

    The plane's stores report every change to their carried ids and
    summary vectors (:attr:`MessageStore.listener`); the plane itself
    counts a contact in at open, once its blind pairs are known, and
    out at close, before they are discarded (:meth:`pair`).  Upkeep
    walks no contact list.  Node sets are bit masks over the plane's
    node order: per node its ``contacts``, per bundle its ``holders``
    (carriers) and ``seers`` (nodes whose vector holds it).  A custody
    change is then two popcounts, and a seen change visits only the
    contacts that carry the bundle.  The ``contacts`` masks are also the
    plane's one record of which contacts are open (:meth:`linked`,
    :meth:`contacts_of`).
    """

    def __init__(self, stores: dict[str, MessageStore],
                 blind: set[tuple[str, str]]):
        self.blind = blind
        self.names = list(stores)
        self.bit = {name: 1 << index for index, name in enumerate(stores)}
        self.lack: dict[str, int] = dict.fromkeys(stores, 0)
        self.contacts: dict[str, int] = dict.fromkeys(stores, 0)
        self.holders: dict[str, int] = {}
        self.seers: dict[str, int] = {}
        for store in stores.values():
            store.listener = self

    def custody(self, node: str, bundle_id: str, sign: int) -> None:
        """``node`` took (``sign`` +1) or released (−1) custody of
        ``bundle_id``.  Two popcounts while no pair of the plane is
        blind; else also O(contacts that have seen the bundle)."""
        self.holders[bundle_id] = (self.holders.get(bundle_id, 0)
                                   ^ self.bit[node])
        contacts = self.contacts[node]
        if not contacts:
            return
        heard = contacts & self.seers.get(bundle_id, 0)
        lacking = contacts.bit_count() - heard.bit_count()
        if heard and self.blind:
            lacking += sum(1 for peer in self._named(heard)
                           if (node, peer) in self.blind)
        if lacking:
            self.lack[node] += sign * lacking

    def seen(self, node: str, bundle_id: str, sign: int) -> None:
        """``node``'s summary vector gained (+1) or lost (−1)
        ``bundle_id``.  O(contacts carrying the bundle)."""
        self.seers[bundle_id] = (self.seers.get(bundle_id, 0)
                                 ^ self.bit[node])
        carriers = self.contacts[node] & self.holders.get(bundle_id, 0)
        lack, blind, names = self.lack, self.blind, self.names
        while carriers:   # _named, inlined on this hot path
            low = carriers & -carriers
            carriers ^= low
            carrier = names[low.bit_length() - 1]
            if not blind or (carrier, node) not in blind:
                lack[carrier] -= sign

    def linked(self, a: str, b: str) -> bool:
        """True while ``a`` and ``b`` are in contact (False for a node
        off the plane).  O(1)."""
        return bool(self.contacts.get(a, 0) & self.bit.get(b, 0))

    def contacts_of(self, node: str) -> list[str]:
        """``node``'s contacts in plane order, which is sorted order
        (the plane builds its stores from sorted node ids).  O(bits
        set)."""
        return self._named(self.contacts[node])

    def _named(self, mask: int) -> list[str]:
        """The nodes of ``mask``, in plane order.  O(bits set)."""
        names, found = self.names, []
        while mask:
            low = mask & -mask
            mask ^= low
            found.append(names[low.bit_length() - 1])
        return found

    def pair(self, a: MessageStore, b: MessageStore, sign: int) -> None:
        """Count the contact between the nodes of stores ``a`` and ``b``
        in (+1, at open) or out (−1, at close), both ways, against the
        vectors each side heard.  O(carried).  The ledger holds no
        store: a store → ledger → store cycle would keep a finished
        world's bundles alive until a full garbage collection."""
        blind, lack, contacts, bit = (self.blind, self.lack, self.contacts,
                                      self.bit)
        a_id, b_id = a.node_id, b.node_id
        contacts[a_id] ^= bit[b_id]
        contacts[b_id] ^= bit[a_id]
        # Both directions written out: this runs at every contact open
        # and close, and a loop over the two costs a third more.
        carried = a._bundles
        if carried:
            lacking = len(carried if (a_id, b_id) in blind
                          else carried.keys() - b._seen)
            if lacking:
                lack[a_id] += sign * lacking
        carried = b._bundles
        if carried:
            lacking = len(carried if (b_id, a_id) in blind
                          else carried.keys() - a._seen)
            if lacking:
                lack[b_id] += sign * lacking
