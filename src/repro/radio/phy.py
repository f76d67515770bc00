"""The lossy PHY plane: per-packet delivery fate from received power.

Until this module, links were binary — in range meant every packet
arrived, so epidemic flooding was free.  :class:`PhyPlane` makes the
physical layer probabilistic, deciding each delivery's fate **at
delivery time** (event-driven, never polled) from three ingredients:

* **path loss + shadowing** — the existing
  :class:`~repro.radio.propagation.LogDistancePathLoss` law gives the
  mean received power; a per-packet log-normal shadowing term (Gaussian
  in dB, ``sigma`` configurable) models obstructions.  Shadowing draws
  come from a dedicated ``phy/shadowing/<sender>-><receiver>`` RNG
  sub-stream per directed pair, so installing a PHY plane never
  perturbs mobility, traffic, or fault draws (labelled streams are
  independent — see :mod:`repro.sim.rng`) and the loss decisions are a
  pure function of ``(master seed, transmission sequence)``;
* **per-technology sensitivity** — each technology's receive threshold
  is *calibrated to its nominal range*: ``sensitivity_dbm =
  path_loss.rssi_dbm(range_m)``, so with ``sigma = 0`` the plane
  reproduces today's binary in-range behaviour exactly (every in-range
  packet clears the threshold) and raising sigma strictly raises the
  per-packet loss probability at every in-range distance;
* **collision / capture** — when transmissions to one receiver overlap
  in time, the stronger survives only if it beats every rival by the
  capture margin, else all overlapped packets are lost.  In-flight
  transmissions are tracked per receiver and pruned lazily (no
  timers).

Jammers (:mod:`repro.faults`) couple in as *noise*, not as a binary
gate: with a PHY plane installed, :meth:`~repro.faults.plane.
FaultPlane.can_transmit` skips its jammer check and the plane instead
raises the effective receive threshold by ``jammer_noise_db`` while an
endpoint sits in a jammer disk — a strong nearby signal still punches
through, a marginal one drowns.

The analytic loss curve is closed-form: a packet at distance *d* is
lost iff ``rssi(d) + X < threshold`` with ``X ~ N(0, sigma)``, so

    ``P(loss) = Phi((threshold - rssi(d)) / sigma)``

which :meth:`PhyPlane.loss_probability` evaluates via ``math.erf`` —
the statistical convergence property tests compare measured rates
against it.

Determinism contract (tested in ``tests/test_phy*.py``):

* a world without a plane (``world.phy is None``) runs the literal
  pre-PHY code path — :func:`install_scenario_phy` installs **nothing**
  when every knob is zero, mirroring the fault plane's zero-rate
  identity;
* same seed ⇒ same per-packet fates at any worker count;
* PHY randomness never moves a walker: mobility streams are untouched.

Units: metres, sim-seconds, bytes, dB/dBm throughout.
"""

from __future__ import annotations

import math
import typing

from repro.metrics.counters import PhyCounters
from repro.mobility.base import distance
from repro.radio.propagation import LogDistancePathLoss, PathLossModel
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.world import World
    from repro.scenarios.builder import Scenario
    from repro.sim.rng import RandomStream

#: Transmit power per technology (dBm) for the default calibrated
#: profiles: Bluetooth class 2, WLAN station, GPRS handset.  Unknown
#: technologies fall back to the Bluetooth figure.
_TX_POWER_DBM = {"bluetooth": 4.0, "wlan": 16.0, "gprs": 33.0}

#: Default SNR a technology needs above its noise floor to decode.
DEFAULT_REQUIRED_SNR_DB = 10.0

#: Default advantage (dB) a packet needs over every overlapping rival
#: to be captured instead of collided (classic capture-effect figure).
DEFAULT_CAPTURE_MARGIN_DB = 6.0

#: Default noise a jammer adds to the floor at an affected endpoint.
DEFAULT_JAMMER_NOISE_DB = 20.0

#: Threshold comparison slack.  Contact events fire with the pair at
#: *exactly* the nominal range, where the calibrated ``rssi ==
#: sensitivity`` holds only up to floating-point noise (~1e-13 dB
#: observed); without slack the zero-sigma plane would lose boundary
#: packets on rounding, breaking the binary-identity contract.  1e-9 dB
#: is ~1e-10 m of position error — far below any physical knob.
_BOUNDARY_EPSILON_DB = 1e-9

#: Resolution fates (``PhyTransmission.fate``).
DELIVERED = "delivered"
CAPTURED = "captured"            # delivered despite overlapping rivals
LOST_FADING = "lost-fading"      # below the (possibly jammed) threshold
LOST_COLLISION = "lost-collision"


class PhyProfile:
    """One technology's receive characteristics, calibrated to range.

    ``sensitivity_dbm`` — the clean-air decode threshold — is derived
    from the path-loss law at the technology's nominal range, so the
    zero-shadowing plane is *exactly* the binary in-range model: every
    geometric contact clears the threshold, nothing outside it does.
    ``noise_floor_dbm`` sits ``required_snr_db`` below sensitivity;
    jammer noise raises the floor (and with it the effective
    threshold) at query time.
    """

    __slots__ = ("tech_name", "path_loss", "sensitivity_dbm",
                 "required_snr_db", "noise_floor_dbm")

    def __init__(self, tech_name: str, path_loss: PathLossModel,
                 sensitivity_dbm: float,
                 required_snr_db: float = DEFAULT_REQUIRED_SNR_DB):
        self.tech_name = tech_name
        self.path_loss = path_loss
        self.sensitivity_dbm = sensitivity_dbm
        self.required_snr_db = required_snr_db
        self.noise_floor_dbm = sensitivity_dbm - required_snr_db

    @classmethod
    def for_technology(cls, tech: Technology,
                       path_loss: PathLossModel | None = None,
                       required_snr_db: float = DEFAULT_REQUIRED_SNR_DB
                       ) -> "PhyProfile":
        """Calibrated profile: sensitivity = rssi at nominal range."""
        if path_loss is None:
            path_loss = LogDistancePathLoss(
                tx_power_dbm=_TX_POWER_DBM.get(tech.name, 4.0))
        return cls(tech.name, path_loss,
                   path_loss.rssi_dbm(tech.range_m), required_snr_db)


class PhyTransmission:
    """One packet on the air: its window, power and (eventual) fate."""

    __slots__ = ("sender", "receiver", "tech_name", "kind", "size_bytes",
                 "started_at", "ends_at", "rssi_dbm", "contenders",
                 "resolved", "fate")

    def __init__(self, sender: str, receiver: str, tech_name: str,
                 kind: str, size_bytes: int, started_at: float,
                 ends_at: float, rssi_dbm: float):
        self.sender = sender
        self.receiver = receiver
        self.tech_name = tech_name
        self.kind = kind
        self.size_bytes = size_bytes
        self.started_at = started_at
        self.ends_at = ends_at
        self.rssi_dbm = rssi_dbm
        #: Overlapping transmissions to the same receiver (mutual).
        self.contenders: list["PhyTransmission"] = []
        self.resolved = False
        self.fate: str | None = None

    @property
    def delivered(self) -> bool:
        """True once resolved with a surviving fate."""
        return self.fate in (DELIVERED, CAPTURED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PhyTransmission {self.sender}->{self.receiver} "
                f"{self.kind} [{self.started_at:.3f},{self.ends_at:.3f}] "
                f"{self.rssi_dbm:.1f}dBm {self.fate or 'in-flight'}>")


class PhyPlane:
    """Per-world lossy physical layer (installed as ``world.phy``).

    Parameters
    ----------
    world:
        The world to attach to.  ``world.phy`` must still be unset —
        stacking two planes is a configuration error (mirroring
        :class:`~repro.faults.plane.FaultPlane`).
    shadowing_sigma_db:
        Log-normal shadowing standard deviation in dB; ``0`` disables
        fading loss entirely (no RNG draw is made, so a
        collisions-only plane is fully deterministic).
    collisions:
        Enable the per-receiver overlap/capture model.
    capture_margin_db:
        Advantage over the strongest rival needed to survive overlap.
    jammer_noise_db:
        Threshold raise while an endpoint is inside a jammer disk.
    profiles:
        Optional ``{tech_name: PhyProfile}`` overrides; unknown
        technologies get a calibrated default on first use.
    """

    def __init__(self, world: "World", *,
                 shadowing_sigma_db: float = 0.0,
                 collisions: bool = True,
                 capture_margin_db: float = DEFAULT_CAPTURE_MARGIN_DB,
                 jammer_noise_db: float = DEFAULT_JAMMER_NOISE_DB,
                 profiles: dict[str, PhyProfile] | None = None):
        if getattr(world, "phy", None) is not None:
            raise ValueError("a PhyPlane is already installed on this "
                             "world; configure the existing plane "
                             "instead of stacking planes")
        if shadowing_sigma_db < 0:
            raise ValueError(
                f"negative shadowing sigma: {shadowing_sigma_db}")
        if capture_margin_db < 0:
            raise ValueError(
                f"negative capture margin: {capture_margin_db}")
        if jammer_noise_db < 0:
            raise ValueError(f"negative jammer noise: {jammer_noise_db}")
        self.world = world
        self.sim = world.sim
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self.collisions = bool(collisions)
        self.capture_margin_db = float(capture_margin_db)
        self.jammer_noise_db = float(jammer_noise_db)
        self.counters = PhyCounters()
        self._profiles: dict[str, PhyProfile] = dict(profiles or {})
        # Per-directed-pair shadowing streams, created lazily; the
        # labels are stable, so a pair's draw sequence depends only on
        # its own transmission history.
        self._streams: dict[tuple[str, str], "RandomStream"] = {}
        # In-flight transmissions per receiver (collision tracking),
        # pruned lazily at each begin — no timers, no polling.
        self._in_flight: dict[str, list[PhyTransmission]] = {}
        # Per-sender air-serialisation cursor for transmit(): one radio
        # sends one packet at a time, so a cascade's same-instant
        # offers occupy consecutive air windows instead of colliding
        # with themselves.
        self._sender_busy: dict[str, float] = {}
        world.phy = self

    # ------------------------------------------------------------------
    # profiles and the analytic curve
    # ------------------------------------------------------------------
    def profile(self, tech: Technology | str | None = None) -> PhyProfile:
        """The (cached) profile for ``tech`` (default Bluetooth)."""
        tech_obj = self._tech(tech)
        profile = self._profiles.get(tech_obj.name)
        if profile is None:
            profile = PhyProfile.for_technology(tech_obj)
            self._profiles[tech_obj.name] = profile
        return profile

    @staticmethod
    def _tech(tech: Technology | str | None) -> Technology:
        if tech is None:
            return get_technology("bluetooth")
        return get_technology(tech) if isinstance(tech, str) else tech

    def loss_probability(self, distance_m: float, *,
                         tech: Technology | str | None = None,
                         jammed: bool = False) -> float:
        """Analytic fading-loss probability at ``distance_m``.

        ``P(loss) = Phi((threshold - rssi(d)) / sigma)`` — the curve
        the measured loss rate converges to (property-tested).  With
        ``sigma = 0`` this is the exact binary threshold.  Collisions
        are not modelled here (they depend on traffic, not geometry).
        """
        profile = self.profile(tech)
        mu = profile.path_loss.rssi_dbm(distance_m)
        threshold = profile.sensitivity_dbm
        if jammed:
            threshold += self.jammer_noise_db
        sigma = self.shadowing_sigma_db
        if sigma <= 0:
            return 0.0 if mu >= threshold - _BOUNDARY_EPSILON_DB else 1.0
        z = (threshold - mu) / (sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    # ------------------------------------------------------------------
    # the transmission registry
    # ------------------------------------------------------------------
    def begin(self, sender: str, receiver: str, size_bytes: int, *,
              kind: str = "data",
              tech: Technology | str | None = None,
              started_at: float | None = None,
              ends_at: float | None = None) -> PhyTransmission:
        """Register one packet on the air; fate is decided at
        :meth:`resolve`.

        Callers that serialise their own air (the bandwidth plane's
        session cursor, a :class:`~repro.radio.channel.Link`'s
        per-direction busy-until) pass their computed window via
        ``started_at`` / ``ends_at``; both default to an immediate
        window of the technology's transmit time.  ``started_at`` must
        not precede the current instant (the lazy pruning invariant).
        """
        tech_obj = self._tech(tech)
        now = self.sim.now
        if started_at is None:
            started_at = now
        if ends_at is None:
            ends_at = started_at + tech_obj.transmit_time(size_bytes)
        rssi = self._draw_rssi(sender, receiver, tech_obj)
        tx = PhyTransmission(sender, receiver, tech_obj.name, kind,
                             size_bytes, started_at, ends_at, rssi)
        self.counters.offered += 1
        if self.collisions:
            self._register(tx, now)
        return tx

    def resolve(self, tx: PhyTransmission) -> bool:
        """Decide (once) whether ``tx`` survived; True if delivered.

        Fading is checked first — a packet below the effective
        threshold is lost regardless of rivals; then the capture rule:
        survive overlap only by beating the strongest rival's received
        power by the capture margin.  Jammer state is sampled here, at
        the delivery instant.
        """
        if tx.resolved:
            return tx.delivered
        tx.resolved = True
        counters = self.counters
        if tx.rssi_dbm < self._threshold_dbm(tx) - _BOUNDARY_EPSILON_DB:
            tx.fate = LOST_FADING
            counters.lost_fading += 1
            return False
        if tx.contenders:
            strongest = max(rival.rssi_dbm for rival in tx.contenders)
            if tx.rssi_dbm >= strongest + self.capture_margin_db:
                tx.fate = CAPTURED
                counters.captured += 1
                counters.delivered += 1
                return True
            tx.fate = LOST_COLLISION
            counters.lost_collision += 1
            return False
        tx.fate = DELIVERED
        counters.delivered += 1
        return True

    def transmit(self, sender: str, receiver: str, size_bytes: int, *,
                 kind: str = "data",
                 tech: Technology | str | None = None,
                 duration_s: float | None = None) -> bool:
        """Instantaneous-plane convenience: begin + resolve now.

        The packet's custody fate is decided at the current instant,
        but its *air window* is serialised through the sender's busy
        cursor — a cascade offering many bundles in one instant
        occupies consecutive windows (one radio), while different
        senders reaching one receiver at the same instant genuinely
        overlap and collide.
        """
        tech_obj = self._tech(tech)
        if duration_s is None:
            duration_s = tech_obj.transmit_time(size_bytes)
        start = max(self.sim.now, self._sender_busy.get(sender, 0.0))
        end = start + duration_s
        self._sender_busy[sender] = end
        tx = self.begin(sender, receiver, size_bytes, kind=kind,
                        tech=tech_obj, started_at=start, ends_at=end)
        return self.resolve(tx)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _draw_rssi(self, sender: str, receiver: str,
                   tech: Technology) -> float:
        profile = self.profile(tech)
        gap = distance(self.world.position(sender),
                       self.world.position(receiver))
        rssi = profile.path_loss.rssi_dbm(gap)
        sigma = self.shadowing_sigma_db
        if sigma > 0:
            rssi += self._stream(sender, receiver).gauss(0.0, sigma)
        return rssi

    def _stream(self, sender: str, receiver: str) -> "RandomStream":
        key = (sender, receiver)
        stream = self._streams.get(key)
        if stream is None:
            stream = self.sim.rng(f"phy/shadowing/{sender}->{receiver}")
            self._streams[key] = stream
        return stream

    def _threshold_dbm(self, tx: PhyTransmission) -> float:
        """Effective decode threshold at this resolution instant.

        The clean-air sensitivity, raised by ``jammer_noise_db`` while
        either endpoint sits inside a jammer disk (the noise-floor
        coupling that replaces the fault plane's binary jammer gate).
        """
        profile = self.profile(tx.tech_name)
        threshold = profile.sensitivity_dbm
        faults = getattr(self.world, "faults", None)
        if faults is not None and (faults.jammed(tx.sender)
                                   or faults.jammed(tx.receiver)):
            threshold += self.jammer_noise_db
        return threshold

    def _register(self, tx: PhyTransmission, now: float) -> None:
        """Track ``tx`` per receiver and cross-link genuine overlaps.

        Entries whose window ended by ``now`` are pruned first — safe
        because every later registration starts at or after its own
        call instant, so nothing registered in the future can overlap
        an already-ended window.  Overlap is strict interval
        intersection (touching endpoints do not collide).
        """
        in_flight = self._in_flight.setdefault(tx.receiver, [])
        if in_flight:
            alive = [t for t in in_flight if t.ends_at > now]
            if len(alive) != len(in_flight):
                in_flight[:] = alive
            for other in in_flight:
                if (other.ends_at > tx.started_at
                        and tx.ends_at > other.started_at):
                    other.contenders.append(tx)
                    tx.contenders.append(other)
        in_flight.append(tx)


def install_scenario_phy(scenario: "Scenario", *,
                         shadowing_sigma_db: float = 0.0,
                         phy_collisions: int = 0,
                         capture_margin_db: float =
                         DEFAULT_CAPTURE_MARGIN_DB,
                         jammer_noise_db: float =
                         DEFAULT_JAMMER_NOISE_DB) -> PhyPlane | None:
    """Install a PHY plane on a freshly built scenario, knob-driven.

    The scenario-registry entry point, mirroring
    :func:`repro.faults.install_scenario_faults`: with
    ``shadowing_sigma_db == 0`` and ``phy_collisions == 0`` it installs
    **nothing at all** (``world.phy`` stays ``None``), so the all-zero
    configuration runs the literal pre-PHY code path — the byte-identity
    the differential tests and ``benchmarks/bench_phy.py`` gate on.

    ``phy_collisions`` is an int switch (0/1) because the experiment
    registry's parameter schema is numeric; any positive value enables
    the collision/capture model.
    """
    if shadowing_sigma_db < 0:
        raise ValueError(
            f"negative shadowing sigma: {shadowing_sigma_db}")
    if phy_collisions < 0:
        raise ValueError(f"negative phy_collisions: {phy_collisions}")
    if shadowing_sigma_db <= 0 and phy_collisions <= 0:
        return None
    return PhyPlane(scenario.world,
                    shadowing_sigma_db=shadowing_sigma_db,
                    collisions=bool(phy_collisions),
                    capture_margin_db=capture_margin_db,
                    jammer_noise_db=jammer_noise_db)
