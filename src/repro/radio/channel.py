"""Physical links: establishment, framed transmission, teardown.

A :class:`Link` is one established bidirectional radio connection between
two nodes on one technology.  It models exactly the failure behaviour the
thesis observed:

* establishment takes a technology-specific random time and can fail
  outright ("the connection fault is quite frequent during the connection
  establishment process even if the devices have strong enough signal",
  §4.3);
* an in-flight frame is lost if the peers are out of range at delivery
  time, and the link is then down — but the *sender is not told*
  ("there exists the possibility to lose data due to Write function not
  being aware of the connection loss", §6.1);
* closing a link wakes blocked receivers with :class:`ChannelClosed`.

Event-driven teardown (PR 3): a link no longer waits for the next frame
to discover that its endpoints drifted apart.  On creation it registers a
one-shot LinkDown watch on the connectivity bus and *breaks at the
predicted crossing instant* — an idle link between diverging nodes goes
down exactly when coverage is lost, waking any blocked receiver then.
The in-range check at delivery time stays as a guard for frames already
in flight at the break.

Scaling note: everything here is *pair-local*.  Range and quality checks
on an established link are O(1) queries against the two endpoints'
positions — they never enumerate the world, so link maintenance stays
constant-cost as the node count grows (neighbor *enumeration* is the
spatial grid's job; see :mod:`repro.radio.spatial`).  Units: metres,
sim-seconds, bytes.
"""

from __future__ import annotations

import typing

from repro.radio.technologies import Technology
from repro.radio.world import World
from repro.sim.events import Event
from repro.sim.resources import Store
from repro.sim.rng import RandomStream


class ChannelClosed(Exception):
    """Receive or send on a link that has been closed or has broken."""


class ConnectFault(Exception):
    """Link establishment failed (the paper's 'normal Bluetooth fault')."""


class OutOfRange(Exception):
    """Link establishment failed because the peer left coverage."""


class Link:
    """An established physical link between ``node_a`` and ``node_b``."""

    _ids = 0

    def __init__(self, world: World, node_a: str, node_b: str,
                 tech: Technology):
        Link._ids += 1
        self.link_id = Link._ids
        self.world = world
        self.sim = world.sim
        self.node_a = node_a
        self.node_b = node_b
        self.tech = tech
        self._open = True
        self._inboxes: dict[str, Store] = {
            node_a: Store(world.sim, f"link{self.link_id}:to:{node_a}"),
            node_b: Store(world.sim, f"link{self.link_id}:to:{node_b}"),
        }
        self._busy_until: dict[str, float] = {node_a: 0.0, node_b: 0.0}
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        # Scheduled teardown: break at the predicted instant the pair
        # leaves coverage (dormant for settled in-range pairs).
        self._down_watch = world.bus.watch_link_down(
            node_a, node_b, tech, self._scheduled_break)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        """True until :meth:`close` is called or a frame loss downs it."""
        return self._open

    def peer_of(self, node_id: str) -> str:
        """The other endpoint."""
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"{node_id!r} is not an endpoint of {self!r}")

    def quality(self) -> int:
        """Current link quality (0–255) as the monitor thread would read
        it.  O(1) pair query."""
        return self.world.link_quality(self.node_a, self.node_b, self.tech)

    def in_range(self) -> bool:
        """True while the endpoints are within radio range.  O(1) pair
        query — independent of world size."""
        return self.world.in_range(self.node_a, self.node_b, self.tech)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send(self, sender: str, payload: object, size_bytes: int) -> float:
        """Queue ``payload`` for the peer; returns the delivery time.

        The link serialises frames per direction (one radio); delivery time
        is ``max(now, direction busy-until) + transmit_time``.  If the link
        is already down the frame is silently dropped (Write is unaware of
        the loss, §6.1) and ``inf`` is returned.

        Under a lossy PHY plane (``world.phy``) each frame is also
        registered on the air for its transmit window; the plane decides
        its fate at the delivery instant.  A PHY-lost frame counts in
        ``frames_lost`` but does *not* down the link — the carrier
        survives a faded frame, which is exactly what gives
        :class:`~repro.core.buffering.ReliableChannel` retransmissions
        something real to recover from.
        """
        receiver = self.peer_of(sender)
        if not self._open:
            self.frames_lost += 1
            return float("inf")
        self.frames_sent += 1
        start = max(self.sim.now, self._busy_until[sender])
        delivery_time = start + self.tech.transmit_time(size_bytes)
        self._busy_until[sender] = delivery_time
        phy = getattr(self.world, "phy", None)
        phy_tx = None
        if phy is not None:
            phy_tx = phy.begin(sender, receiver, size_bytes, tech=self.tech,
                               started_at=start, ends_at=delivery_time)
        delay = delivery_time - self.sim.now
        timer = self.sim.timeout(delay)
        timer._add_callback(
            lambda _event: self._deliver(receiver, payload, phy_tx))
        return delivery_time

    def _deliver(self, receiver: str, payload: object,
                 phy_tx: object | None = None) -> None:
        if not self._open:
            self.frames_lost += 1
            return
        if not self.in_range():
            # The peers drifted apart while the frame was in flight: the
            # frame is lost and the link is physically down.
            self.frames_lost += 1
            self._break()
            return
        if phy_tx is not None:
            phy = getattr(self.world, "phy", None)
            if phy is not None and not phy.resolve(phy_tx):
                # Faded or collided at the receiver: frame lost, link up.
                self.frames_lost += 1
                return
        self.frames_delivered += 1
        self._inboxes[receiver].put(payload)

    def receive(self, receiver: str) -> Event:
        """Event that fires with the next frame addressed to ``receiver``.

        Fails with :class:`ChannelClosed` if the link is (or becomes)
        closed while waiting — buffered frames are still drained first.
        """
        inbox = self._inboxes[receiver]
        if not self._open and len(inbox) == 0:
            failed = Event(self.sim, "receive-on-closed-link")
            failed.fail(ChannelClosed(f"link {self.link_id} is closed"))
            return failed
        return inbox.get()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Orderly local close; idempotent."""
        self._break()

    def _scheduled_break(self, _event) -> None:
        """The bus-predicted LinkDown instant arrived: go down now."""
        self._break()

    def _break(self) -> None:
        if not self._open:
            return
        self._open = False
        watch = self._down_watch
        if watch is not None:
            self._down_watch = None
            watch.cancel()
        for inbox in self._inboxes.values():
            while inbox.pending_getters:
                getter = inbox._getters.popleft()
                getter.fail(ChannelClosed(f"link {self.link_id} closed"))

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return (f"<Link#{self.link_id} {self.node_a}<->{self.node_b} "
                f"{self.tech.name} {state}>")


class LinkEstablisher:
    """Creates physical links with realistic latency and faults.

    One establisher per simulation; it owns the RNG stream for connect
    times and fault draws so results are reproducible.
    """

    def __init__(self, world: World, rng: RandomStream | None = None):
        self.world = world
        self.sim = world.sim
        self.rng = rng or world.sim.rng("link-establisher")
        self.attempts = 0
        self.faults = 0
        self.range_failures = 0

    def connect(self, initiator: str, target: str, tech: Technology,
                retries: int = 0) -> typing.Generator:
        """Process generator: establish a link or raise.

        Models the full attempt: the initiator spends the technology's
        connect time, then the attempt fails with :class:`OutOfRange` if
        the peer has left coverage, or with :class:`ConnectFault` with the
        technology's fault probability.  ``retries`` extra attempts are
        made on :class:`ConnectFault` (the §4.3 recommendation); range
        failures are not retried — the peer is gone.
        """
        last_fault: Exception | None = None
        for _attempt in range(retries + 1):
            self.attempts += 1
            duration = self.rng.uniform(
                tech.connect_time_min, tech.connect_time_max)
            yield self.sim.timeout(duration)
            if not self.world.in_range(initiator, target, tech):
                self.range_failures += 1
                raise OutOfRange(
                    f"{target} out of {tech.name} range of {initiator}")
            if self.rng.bernoulli(tech.connect_fault_probability):
                self.faults += 1
                last_fault = ConnectFault(
                    f"{tech.name} establishment fault "
                    f"{initiator} -> {target}")
                continue
            return Link(self.world, initiator, target, tech)
        assert last_fault is not None
        raise last_fault
