"""Data buffering: the §6.1 reliability extension and the shared buffer.

"So far there exists the possibility to lose data due to Write function
not being aware of the connection loss.  Additionally, the implementation
of Data Transferring Acknowledge is too costly due to the small size of
packet.  Thus an efficient Data Buffering is necessary to guarantee the
data integrity."

Two layers live here:

* :class:`BoundedBuffer` — the *shared* byte-bounded, TTL-aware buffer
  with pluggable eviction policies.  It is the single buffering
  implementation of the repo: the PeerHood service plane uses it as the
  :class:`ReliableChannel` retransmission window (unbounded, no TTL),
  and the DTN data plane (:mod:`repro.dtn`) builds its per-node
  :class:`~repro.dtn.store.MessageStore` on it (capacity- and
  TTL-evicting).  Keeping one implementation means one set of eviction
  semantics, counters and tests for both planes.
* :class:`ReliableChannel` — the §6.1 trade-off: application payloads
  carry sequence numbers and are buffered until *cumulatively*
  acknowledged — one ack per ``ack_every`` payloads instead of per
  packet (the paper's cost concern) — and everything unacknowledged is
  retransmitted when a handover substitutes the transport (the
  ChangeConnection callback) or when the periodic resend timer finds the
  transport alive again.  The receiver delivers in order and drops the
  duplicates retransmission creates.

Both endpoints wrap their own side::

    channel = ReliableChannel(connection)
    channel.send("payload", 64)
    payload = yield from channel.receive()
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.connection import PeerHoodConnection
from repro.core.errors import ConnectionClosedError
from repro.sim.resources import Store

# ----------------------------------------------------------------------
# the shared bounded buffer
# ----------------------------------------------------------------------
#: Eviction policies of :class:`BoundedBuffer`.  ``EVICT_OLDEST`` drops
#: the longest-stored entry first (FIFO — the DTN default and what the
#: reliable channel's cumulative trim approximates); ``EVICT_LARGEST``
#: frees the most bytes per drop; ``EVICT_SOONEST_EXPIRY`` sacrifices the
#: entry that would die of TTL first anyway.
EVICT_OLDEST = "oldest"
EVICT_LARGEST = "largest"
EVICT_SOONEST_EXPIRY = "soonest-expiry"

EVICTION_POLICIES = (EVICT_OLDEST, EVICT_LARGEST, EVICT_SOONEST_EXPIRY)


@dataclasses.dataclass(frozen=True)
class BufferEntry:
    """One buffered item with the facts eviction decisions need.

    ``size_bytes`` is the declared payload size; ``stored_at`` and
    ``expires_at`` are sim-seconds (``expires_at`` ``None`` = never).
    """

    key: object
    item: object
    size_bytes: int
    stored_at: float
    expires_at: float | None = None

    def expired(self, now: float) -> bool:
        """True once ``now`` has passed the entry's expiry instant."""
        return self.expires_at is not None and now >= self.expires_at


class BoundedBuffer:
    """An ordered, keyed, byte-bounded buffer with eviction policies.

    Entries keep insertion order (the retransmission window iterates in
    sequence order; DTN stores offer oldest bundles first).  All
    operations are O(1) amortised except ``drop_matching``, expiry
    sweeps that find something due, and the ``EVICT_LARGEST`` /
    ``EVICT_SOONEST_EXPIRY`` victim scans, which are O(n) in the number
    of buffered entries.  ``capacity_bytes=None`` means unbounded (the
    reliable-channel window).  The buffer never advances a clock of its
    own: callers pass ``now`` explicitly, so expiry needs no timer
    wakeups.  :attr:`next_expiry` is a lower bound on the soonest
    expiry instant, so a sweep with nothing due is one comparison.
    """

    def __init__(self, capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity must be positive or None: {capacity_bytes}")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}; "
                             f"choose from {EVICTION_POLICIES}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._entries: dict[object, BufferEntry] = {}
        self.used_bytes = 0
        #: Entries dropped to make room (never incremented by remove()).
        self.evicted = 0
        #: Entries dropped because their TTL ran out.
        self.expired = 0
        #: No entry expires before this instant (``inf``: none can).
        #: Read-only for callers.  A conservative bound: add() lowers
        #: it, a sweep that runs makes it exact, remove() and
        #: drop_matching() may leave it stale (too low, which only
        #: costs a sweep that finds nothing).
        self.next_expiry = math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: object) -> BufferEntry | None:
        """The entry stored under ``key``, or None.  O(1)."""
        return self._entries.get(key)

    def keys(self) -> list:
        """Keys in insertion order."""
        return list(self._entries)

    def entries(self) -> list[BufferEntry]:
        """Entries in insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------
    def add(self, key: object, item: object, size_bytes: int,
            now: float, ttl_s: float | None = None,
            ) -> list[BufferEntry]:
        """Store ``item`` under ``key``; returns the entries evicted.

        Storing an already-present key replaces the entry's item, size
        and expiry *in place*: it keeps its queue position and its
        original ``stored_at``, so updating a carried bundle (the
        spray-and-wait token bookkeeping) never rejuvenates it under
        ``EVICT_OLDEST`` — custody age is when the key first entered,
        not when it was last touched.  A replacement is not an
        eviction.  When the buffer is over capacity after the insert,
        victims are chosen by the policy *excluding the new entry* —
        unless even an empty buffer could not hold it, in which case the
        new entry itself is rejected (returned in the evicted list and
        not stored).  ``ttl_s`` ``None`` means no expiry.
        """
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl must be positive or None: {ttl_s}")
        expires = None if ttl_s is None else now + ttl_s
        old = self._entries.get(key)
        stored_at = now if old is None else old.stored_at
        entry = BufferEntry(key, item, size_bytes, stored_at, expires)
        if (self.capacity_bytes is not None
                and size_bytes > self.capacity_bytes):
            self.evicted += 1
            return [entry]   # can never fit: rejected outright
        if old is not None:
            self.used_bytes -= old.size_bytes
        self._entries[key] = entry   # existing keys keep dict position
        self.used_bytes += size_bytes
        if expires is not None and expires < self.next_expiry:
            self.next_expiry = expires
        evicted: list[BufferEntry] = []
        while (self.capacity_bytes is not None
               and self.used_bytes > self.capacity_bytes):
            victim = self._victim(exclude=key)
            if victim is None:   # only the new entry left: fits by check
                break
            self._drop(victim)
            self.evicted += 1
            evicted.append(victim)
        return evicted

    def _victim(self, exclude: object) -> BufferEntry | None:
        """The policy's next eviction victim, never the excluded key.

        One pass over the entries (insertion-rank tie-breaks fall out
        of the enumeration, keeping the scan O(n)).
        """
        candidates = ((i, e) for i, (k, e) in
                      enumerate(self._entries.items()) if k != exclude)
        if self.policy == EVICT_OLDEST:
            pair = next(candidates, None)   # dict preserves insertion
            return None if pair is None else pair[1]
        best: BufferEntry | None = None
        best_rank: tuple | None = None
        for index, entry in candidates:
            if self.policy == EVICT_LARGEST:
                # Biggest wins; among equals the oldest (lowest index).
                rank = (-entry.size_bytes, index)
            else:
                # EVICT_SOONEST_EXPIRY: immortal entries lose to any
                # expiring one only when nothing expires; among
                # expiring, soonest dies first.
                rank = _expiry_rank(entry)
            if best_rank is None or rank < best_rank:
                best, best_rank = entry, rank
        return best

    def _drop(self, entry: BufferEntry) -> None:
        del self._entries[entry.key]
        self.used_bytes -= entry.size_bytes

    def remove(self, key: object) -> BufferEntry | None:
        """Remove and return the entry under ``key`` (None if absent).

        A deliberate removal — acked, delivered, superseded — so it
        counts in neither ``evicted`` nor ``expired``.  O(1).
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry.size_bytes
        return entry

    def drop_matching(self, predicate: typing.Callable[[BufferEntry], bool]
                      ) -> list[BufferEntry]:
        """Remove every entry the predicate accepts; returns them in order.

        The reliable channel's cumulative ack trims the window with
        this.  Deliberate removals: not counted as evictions.  O(n).
        """
        victims = [e for e in self._entries.values() if predicate(e)]
        for victim in victims:
            self._drop(victim)
        return victims

    def drop_expired(self, now: float) -> list[BufferEntry]:
        """Remove every entry whose TTL has passed at ``now``.

        Returns the dropped entries in insertion order and counts them
        in ``expired``.  Callers sweep lazily (at contact events, sends
        and queries), so expiry costs no timer wakeups.  O(1) while
        ``now`` is below :attr:`next_expiry`; otherwise one O(n) pass
        that also makes the bound exact again.
        """
        if now < self.next_expiry:
            return []
        victims: list[BufferEntry] = []
        soonest = math.inf
        for entry in self._entries.values():
            if entry.expired(now):
                victims.append(entry)
            elif entry.expires_at is not None and entry.expires_at < soonest:
                soonest = entry.expires_at
        for victim in victims:
            self._drop(victim)
            self.expired += 1
        self.next_expiry = soonest
        return victims


def _expiry_rank(entry: BufferEntry) -> tuple:
    """Sort key for EVICT_SOONEST_EXPIRY: expiring before immortal."""
    if entry.expires_at is None:
        return (1, entry.stored_at)
    return (0, entry.expires_at)

#: Cumulative-ack frequency: one ack per this many delivered payloads.
DEFAULT_ACK_EVERY = 4

#: Period of the retransmission timer, seconds.
DEFAULT_RESEND_INTERVAL_S = 5.0

#: Envelope overhead charged to the transmit-time model, bytes.
_ENVELOPE_OVERHEAD = 8
_ACK_SIZE = 12


@dataclasses.dataclass(frozen=True)
class _Sequenced:
    """A buffered application payload with its sequence number."""

    sequence: int
    payload: object
    declared_size: int


@dataclasses.dataclass(frozen=True)
class _CumulativeAck:
    """Receiver has everything up to and including ``sequence``."""

    sequence: int


class ReliableChannel:
    """One endpoint of a buffered, in-order, at-least-once channel."""

    def __init__(self, connection: PeerHoodConnection,
                 ack_every: int = DEFAULT_ACK_EVERY,
                 resend_interval_s: float = DEFAULT_RESEND_INTERVAL_S):
        if ack_every < 1:
            raise ValueError(f"ack_every must be >= 1: {ack_every}")
        if resend_interval_s <= 0:
            raise ValueError("resend interval must be positive")
        self.connection = connection
        self.sim = connection.sim
        self.ack_every = ack_every
        self.resend_interval_s = resend_interval_s
        # Sender state: the retransmission window is the shared
        # BoundedBuffer, unbounded and TTL-free (the §6.1 guarantee is
        # "never drop"), keyed by sequence number so the cumulative ack
        # trims it with one drop_matching pass.
        self._next_sequence = 1
        self._window = BoundedBuffer()
        self.retransmissions = 0
        # Receiver state.
        self._expected = 1
        self._out_of_order: dict[int, _Sequenced] = {}
        self._delivered_since_ack = 0
        self._ready: Store = Store(
            self.sim, f"reliable-rx:{connection.connection_id}")
        self._rx_closed = object()
        self.duplicates_dropped = 0
        connection.on_connection_changed(self._on_transport_changed)
        self._resend_process = self.sim.spawn(
            self._resend_loop(),
            name=f"reliable-resend:{connection.local_node_id}:"
                 f"{connection.connection_id}")
        # The channel owns the raw read side: acks must be processed even
        # while the application is not receiving (the sender-only client
        # case), so a dedicated pump drains the connection.
        self._reader_process = self.sim.spawn(
            self._reader_loop(),
            name=f"reliable-rx:{connection.local_node_id}:"
                 f"{connection.connection_id}")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    @property
    def unacknowledged(self) -> int:
        """Payloads buffered awaiting a cumulative ack."""
        return len(self._window)

    def send(self, payload: object, size_bytes: int) -> int:
        """Buffer and transmit one payload; returns its sequence number."""
        envelope = _Sequenced(sequence=self._next_sequence, payload=payload,
                              declared_size=size_bytes)
        self._next_sequence += 1
        self._window.add(envelope.sequence, envelope, size_bytes,
                         now=self.sim.now)
        self.connection.write(envelope,
                              size_bytes + _ENVELOPE_OVERHEAD)
        return envelope.sequence

    def _retransmit_unacked(self) -> None:
        if not self.connection.is_open:
            return
        for entry in self._window.entries():
            envelope = entry.item
            self.retransmissions += 1
            self.connection.write(
                envelope, envelope.declared_size + _ENVELOPE_OVERHEAD)

    def _on_transport_changed(self, _connection: PeerHoodConnection) -> None:
        # A handover replaced the link: anything in flight on the old
        # chain may be gone; resend the whole window (§6.1's buffering).
        self._retransmit_unacked()

    def _resend_loop(self) -> typing.Generator:
        while self.connection.is_open:
            yield self.sim.timeout(self.resend_interval_s)
            if not self.connection.is_open:
                return
            if len(self._window) and self.connection.transport_alive():
                self._retransmit_unacked()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _reader_loop(self) -> typing.Generator:
        while True:
            try:
                raw = yield from self.connection.read()
            except ConnectionClosedError:
                self._ready.put(self._rx_closed)
                return
            self._handle_raw(raw)

    def receive(self) -> typing.Generator:
        """Process generator: next in-order payload.

        Raises :class:`ConnectionClosedError` once the underlying
        connection is closed and nothing deliverable remains.
        """
        item = yield self._ready.get()
        if item is self._rx_closed:
            self._ready.put(self._rx_closed)  # wake later receivers too
            raise ConnectionClosedError(
                f"reliable channel over closed connection "
                f"#{self.connection.connection_id}")
        return item

    def _handle_raw(self, raw: object) -> None:
        if isinstance(raw, _CumulativeAck):
            self._window.drop_matching(
                lambda entry: entry.key <= raw.sequence)
            return
        if not isinstance(raw, _Sequenced):
            # Unsequenced traffic from a non-buffered peer: pass through.
            self._ready.put(raw)
            return
        if raw.sequence < self._expected:
            self.duplicates_dropped += 1
            self._maybe_ack(force=True)  # re-ack so the sender trims
            return
        if raw.sequence > self._expected:
            self._out_of_order[raw.sequence] = raw
            return
        self._deliver(raw)
        while self._expected in self._out_of_order:
            self._deliver(self._out_of_order.pop(self._expected))

    def _deliver(self, envelope: _Sequenced) -> None:
        self._ready.put(envelope.payload)
        self._expected += 1
        self._delivered_since_ack += 1
        self._maybe_ack(force=False)

    def _maybe_ack(self, force: bool) -> None:
        if not force and self._delivered_since_ack < self.ack_every:
            return
        self._delivered_since_ack = 0
        if not self.connection.is_open:
            return
        self.connection.write(_CumulativeAck(self._expected - 1),
                              _ACK_SIZE)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self, reason: str = "") -> None:
        """Flush a final ack and close the underlying connection."""
        if self.connection.is_open:
            self._maybe_ack(force=True)
            self.connection.close(reason)

    def __repr__(self) -> str:
        return (f"<ReliableChannel conn#{self.connection.connection_id} "
                f"unacked={self.unacknowledged} "
                f"expected={self._expected}>")
