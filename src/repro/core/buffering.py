"""Data buffering: the §6.1 reliability extension.

"So far there exists the possibility to lose data due to Write function
not being aware of the connection loss.  Additionally, the implementation
of Data Transferring Acknowledge is too costly due to the small size of
packet.  Thus an efficient Data Buffering is necessary to guarantee the
data integrity."

:class:`ReliableChannel` is the §6.1 trade-off: application payloads
carry sequence numbers and are buffered until *cumulatively*
acknowledged — one ack per ``ack_every`` payloads instead of per packet
(the paper's cost concern) — and everything unacknowledged is
retransmitted when a handover substitutes the transport (the
ChangeConnection callback) or when the periodic resend timer finds the
transport alive again.  The receiver delivers in order and drops the
duplicates retransmission creates.  Only an ack empties the window:
buffering "guarantees the data integrity", so nothing is ever evicted.

Both endpoints wrap their own side::

    channel = ReliableChannel(connection)
    channel.send("payload", 64)
    payload = yield from channel.receive()
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.connection import PeerHoodConnection
from repro.core.errors import ConnectionClosedError
from repro.sim.resources import Store

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
        # Sender state: the retransmission window, keyed by sequence
        # number in sequence order; only the cumulative ack trims it.
        self._next_sequence = 1
        self._window: dict[int, _Sequenced] = {}
        self.retransmissions = 0
        # Receiver state.
        self._expected = 1
        self._out_of_order: dict[int, _Sequenced] = {}
        self._delivered_since_ack = 0
        self._ready: Store = Store(
            self.sim, f"reliable-rx:{connection.connection_id}")
        self._rx_closed = object()
        connection.on_connection_changed(self._on_transport_changed)
        self.sim.spawn(
            self._resend_loop(),
            name=f"reliable-resend:{connection.local_node_id}:"
                 f"{connection.connection_id}")
        # The channel owns the raw read side: acks must be processed even
        # while the application is not receiving (the sender-only client
        # case), so a dedicated pump drains the connection.
        self.sim.spawn(
            self._reader_loop(),
            name=f"reliable-rx:{connection.local_node_id}:"
                 f"{connection.connection_id}")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, payload: object, size_bytes: int) -> int:
        """Buffer and transmit one payload; returns its sequence number.

        A negative size raises :class:`ValueError` before anything is
        buffered or written.
        """
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        envelope = _Sequenced(sequence=self._next_sequence, payload=payload,
                              declared_size=size_bytes)
        self._next_sequence += 1
        self._window[envelope.sequence] = envelope
        self.connection.write(envelope,
                              size_bytes + _ENVELOPE_OVERHEAD)
        return envelope.sequence

    def _retransmit_unacked(self) -> None:
        if not self.connection.is_open:
            return
        for envelope in list(self._window.values()):
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
            if self._window and self.connection.transport_alive():
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
            for sequence in [sequence for sequence in self._window
                             if sequence <= raw.sequence]:
                del self._window[sequence]
            return
        if not isinstance(raw, _Sequenced):
            # Unsequenced traffic from a non-buffered peer: pass through.
            self._ready.put(raw)
            return
        if raw.sequence < self._expected:
            # A duplicate: drop it, but re-ack so the sender trims.
            self._maybe_ack(force=True)
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

    def __repr__(self) -> str:
        return (f"<ReliableChannel conn#{self.connection.connection_id} "
                f"unacked={len(self._window)} "
                f"expected={self._expected}>")
