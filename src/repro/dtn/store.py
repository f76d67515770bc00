"""Per-node message stores: bounded custody over the shared buffer.

Each DTN node owns a :class:`MessageStore` — a thin, bundle-aware facade
over the repo's single buffering implementation
(:class:`repro.core.buffering.BoundedBuffer`, the same class that backs
the PeerHood service plane's §6.1 retransmission window).  The store
adds what custody needs on top:

* **TTL eviction** — every bundle enters with its own lifetime and is
  dropped by *lazy* sweeps (:meth:`expire`) at contact/send instants,
  so expiry costs no timer wakeups; before
  :attr:`~MessageStore.next_expiry` a sweep is one comparison;
* **capacity eviction** — a byte budget with the shared policies
  (drop-oldest, drop-largest, drop-soonest-expiry);
* **summary vectors** — the epidemic-routing dedup set: ids this node
  currently carries *plus* ids it has already seen (received, relayed
  onward, or delivered as destination), so a contact never re-sends
  what the peer already processed;
* **a version** — :attr:`~MessageStore.version` changes whenever the
  carried bundles or the summary vector may have, so the forwarder can
  recognise a pair it already settled without re-running the router;
* **partial fragments** — receiver-side byte counts of transfers the
  bandwidth-limited plane (:mod:`repro.dtn.capacity`) had to truncate
  at a window edge.  The fragment belongs to the *receiver* (reactive
  fragmentation, RFC 4838 flavour): any later custodian of the same
  bundle can resume from the recorded offset, including after the
  original sender died.

All counts feed the plane-wide
:class:`~repro.metrics.counters.DtnCounters`.  Units: bytes,
sim-seconds.
"""

from __future__ import annotations

import typing

from repro.core.buffering import (
    BoundedBuffer,
    EVICT_OLDEST,
)
from repro.dtn.bundle import Bundle
from repro.metrics.counters import DtnCounters


class MessageStore:
    """One node's bundle custody: a keyed, bounded, TTL-aware buffer.

    ``capacity_bytes=None`` means unbounded.  Insertion order is
    preserved (offers iterate oldest-first).  All operations are O(1)
    amortised except the sweeps/scans inherited from the shared buffer
    (O(n) in stored bundles; an :meth:`expire` with nothing due is
    O(1)).
    """

    def __init__(self, node_id: str, capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST,
                 counters: DtnCounters | None = None):
        self.node_id = node_id
        self.counters = counters if counters is not None else DtnCounters()
        self._buffer = BoundedBuffer(capacity_bytes=capacity_bytes,
                                     policy=policy)
        #: Every bundle id this node has ever held or delivered — the
        #: summary-vector memory that prevents epidemic re-infection.
        self._seen: set[str] = set()
        #: bundle id → bytes received so far of a truncated transfer
        #: (the partial-resume ledger; cleared on completed custody).
        self._partials: dict[str, int] = {}
        #: Bumped by every mutation that may change :meth:`bundles` or
        #: :meth:`summary_vector` (fragments do not count).  Equal
        #: versions mean both are unchanged.
        self.version = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __contains__(self, bundle_id: str) -> bool:
        return bundle_id in self._buffer

    @property
    def used_bytes(self) -> int:
        """Bytes currently under custody."""
        return self._buffer.used_bytes

    @property
    def capacity_bytes(self) -> int | None:
        return self._buffer.capacity_bytes

    @property
    def policy(self) -> str:
        return self._buffer.policy

    @property
    def next_expiry(self) -> float:
        """No bundle expires before this instant, so :meth:`expire`
        is a no-op until then (``inf``: the store is empty).  O(1)."""
        return self._buffer.next_expiry

    def bundles(self) -> list[Bundle]:
        """Buffered bundles in insertion (custody) order."""
        return [entry.item for entry in self._buffer.entries()]

    def get(self, bundle_id: str) -> Bundle | None:
        """The buffered bundle under ``bundle_id``, or None.  O(1)."""
        entry = self._buffer.get(bundle_id)
        return None if entry is None else entry.item

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

    def summary_vector(self) -> frozenset[str]:
        """The epidemic dedup set: carried ∪ previously-seen ids."""
        return frozenset(self._seen)

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
        """Take custody of ``bundle``; True if it is buffered afterwards.

        An already-expired bundle is refused (counted ``expired``).
        Capacity pressure evicts per the policy (counted ``evicted``);
        the incoming bundle itself may be the reject when it can never
        fit.  Re-adding a carried id replaces the stored value (spray
        token updates) without touching the counters.
        """
        if bundle.expired(now):
            self.counters.expired += 1
            return False
        self.version += 1
        self._seen.add(bundle.bundle_id)
        evicted = self._buffer.add(
            bundle.bundle_id, bundle, bundle.size_bytes, now=now,
            ttl_s=bundle.expires_at - now)
        self.counters.evicted += len(evicted)
        return bundle.bundle_id in self._buffer

    def replace(self, bundle: Bundle, now: float) -> None:
        """Update a carried bundle in place (spray-token bookkeeping)."""
        if bundle.bundle_id not in self._buffer:
            raise KeyError(f"{self.node_id} does not carry "
                           f"{bundle.bundle_id!r}")
        self.version += 1
        self._buffer.add(bundle.bundle_id, bundle, bundle.size_bytes,
                         now=now, ttl_s=max(bundle.expires_at - now,
                                            1e-9))

    def remove(self, bundle_id: str) -> Bundle | None:
        """Release custody deliberately (delivered/acked).  O(1)."""
        entry = self._buffer.remove(bundle_id)
        if entry is None:
            return None
        self.version += 1
        return entry.item

    def expire(self, now: float) -> list[Bundle]:
        """Drop every bundle whose TTL has passed (lazy sweep).

        O(1) before :attr:`next_expiry`, else O(n).
        """
        dropped = [entry.item
                   for entry in self._buffer.drop_expired(now)]
        if dropped:
            self.counters.expired += len(dropped)
            self.version += 1
        return dropped

    def drop_all(self) -> list[Bundle]:
        """Custodian death: every carried bundle is lost.  O(n).

        Counted ``dropped_dead`` — the churn invariant (a bundle whose
        custodian powered off is never delivered post-mortem) is
        observable through this counter.
        """
        victims = self._buffer.drop_matching(lambda entry: True)
        self.counters.dropped_dead += len(victims)
        self._partials.clear()   # fragments die with the node
        self.version += 1
        return [entry.item for entry in victims]

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
        self._seen.clear()
        return victims

    def __repr__(self) -> str:
        cap = ("∞" if self._buffer.capacity_bytes is None
               else self._buffer.capacity_bytes)
        return (f"<MessageStore {self.node_id} bundles={len(self)} "
                f"bytes={self.used_bytes}/{cap} policy={self.policy}>")
