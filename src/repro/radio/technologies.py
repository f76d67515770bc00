"""Network technology parameter sets.

PeerHood abstracts Bluetooth, WLAN and GPRS behind plugins (§2.1).  Each
:class:`Technology` captures the radio behaviour that the thesis' results
depend on:

* coverage radius — drives discovery, coverage exclusion and handover;
* connect-time distribution — the paper measured 3–18 s for a two-link
  Bluetooth bridge chain (§4.3) and 4–15 s for the handover reconnect
  (§5.2.1), i.e. roughly 1.5–9 s per Bluetooth link;
* establishment fault probability — 3 of 10 two-link bridge attempts failed
  (§4.3), i.e. ~16 % per link (1 − √0.7);
* inquiry behaviour — Bluetooth discovery is *asymmetric*: a device that is
  scanning is itself undiscoverable (§3.4.2, ref. [4]), which inflates the
  multi-hop change-notification delay (Fig. 3.10);
* data rate — ``bitrate_bps`` (byte form :attr:`Technology.data_rate_Bps`)
  bounds what one contact window can carry: the bandwidth-limited DTN
  plane computes every contact's byte budget as
  :meth:`Technology.contact_capacity_bytes` of the predicted window.

Units: metres, seconds, bits/bytes per second as named.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Technology:
    """Immutable parameter set for one wireless technology.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"bluetooth"``.
    range_m:
        Nominal coverage radius in metres.
    connect_time_min / connect_time_max:
        Uniform bounds (seconds) for one link-establishment attempt.
    connect_fault_probability:
        Probability that one establishment attempt fails outright even with
        good signal (the paper's "normal Bluetooth connection fault").
    bitrate_bps:
        Effective payload bitrate, bits per second.
    base_latency_s:
        Fixed per-message latency on an established link.
    inquiry_duration_s:
        Time one discovery inquiry scan takes.
    inquiry_interval_s:
        Idle time between consecutive inquiry scans (the thesis' "device
        searching cycle" is ``inquiry_duration_s + inquiry_interval_s``).
    discoverable_while_inquiring:
        False for Bluetooth: a scanning device cannot be found (§3.4.2).
    response_window_s:
        Minimum contiguous non-inquiring time a peer must have inside our
        scan window for the inquiry to hear it.  Bluetooth's inquiry and
        inquiry-scan substates need a couple of seconds to meet; the
        paper's "on random occasions the Bluetooth device won't be
        searched" (§3.4.2) falls out of this overlap requirement.
    fetch_time_s:
        Duration of one short information-fetch connection during discovery
        (device/service/prototype/neighbourhood fetch, Fig. 3.7).
    mtu_bytes:
        Maximum frame payload; larger writes are segmented.
    """

    name: str
    range_m: float
    connect_time_min: float
    connect_time_max: float
    connect_fault_probability: float
    bitrate_bps: float
    base_latency_s: float
    inquiry_duration_s: float
    inquiry_interval_s: float
    discoverable_while_inquiring: bool
    fetch_time_s: float
    response_window_s: float = 0.1
    mtu_bytes: int = 672

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError(f"range must be positive: {self.range_m}")
        if self.connect_time_min < 0 or (
                self.connect_time_max < self.connect_time_min):
            raise ValueError("invalid connect time bounds")
        if not 0.0 <= self.connect_fault_probability < 1.0:
            raise ValueError(
                f"fault probability out of [0,1): "
                f"{self.connect_fault_probability}")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive: {self.bitrate_bps}")
        if self.mtu_bytes <= 0:
            raise ValueError(f"mtu must be positive: {self.mtu_bytes}")

    @property
    def search_cycle_s(self) -> float:
        """One full device-searching cycle (scan + idle), Fig. 3.10."""
        return self.inquiry_duration_s + self.inquiry_interval_s

    @property
    def data_rate_Bps(self) -> float:
        """Effective payload data rate in **bytes per second**.

        The byte-budget form of ``bitrate_bps`` — the rate the
        bandwidth-limited DTN contact plane (:mod:`repro.dtn.capacity`)
        schedules transfers against.  O(1).
        """
        return self.bitrate_bps / 8.0

    def transmit_time(self, size_bytes: int) -> float:
        """Seconds to push ``size_bytes`` onto the air at this bitrate.

        ``base_latency_s`` is charged once per message (framing +
        turnaround), then the payload streams at ``bitrate_bps``.
        O(1); raises on negative sizes.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        return self.base_latency_s + (size_bytes * 8.0) / self.bitrate_bps

    def contact_capacity_bytes(self, window_s: float,
                               rate_Bps: float | None = None) -> int:
        """Byte budget of one contact lasting ``window_s`` sim-seconds.

        The capacity model of the bandwidth-limited data plane — the
        *single* budget formula, also used by
        :class:`repro.dtn.capacity.BandwidthDtnOverlay`:
        ``⌊window × rate⌋`` with ``rate`` defaulting to this
        technology's :attr:`data_rate_Bps` (``rate_Bps`` overrides it
        for constrained-regime sweeps).  An *upper bound* on what any
        pair can exchange while their coverage disks overlap
        (per-message ``base_latency_s`` only shrinks the achievable
        volume further).  Non-positive windows yield 0.  O(1).
        """
        if window_s <= 0:
            return 0
        rate = self.data_rate_Bps if rate_Bps is None else rate_Bps
        return int(window_s * rate)


#: Bluetooth 2.0-era class 2 radio, calibrated from the thesis' measurements.
BLUETOOTH = Technology(
    name="bluetooth",
    range_m=10.0,
    connect_time_min=1.5,
    connect_time_max=9.0,
    connect_fault_probability=0.163,
    bitrate_bps=723_000.0,
    base_latency_s=0.03,
    inquiry_duration_s=10.24,
    inquiry_interval_s=10.0,
    discoverable_while_inquiring=False,
    fetch_time_s=0.6,
    response_window_s=1.0,
    mtu_bytes=672,
)

#: 802.11b/g infrastructure-less link as PeerHood used it.
WLAN = Technology(
    name="wlan",
    range_m=50.0,
    connect_time_min=0.2,
    connect_time_max=1.2,
    connect_fault_probability=0.02,
    bitrate_bps=10_000_000.0,
    base_latency_s=0.005,
    inquiry_duration_s=2.0,
    inquiry_interval_s=3.0,
    discoverable_while_inquiring=True,
    fetch_time_s=0.1,
    mtu_bytes=1500,
)

#: Cellular GPRS: near-ubiquitous coverage, slow and higher latency.
GPRS = Technology(
    name="gprs",
    range_m=1_000.0,
    connect_time_min=1.0,
    connect_time_max=3.0,
    connect_fault_probability=0.05,
    bitrate_bps=80_000.0,
    base_latency_s=0.5,
    inquiry_duration_s=4.0,
    inquiry_interval_s=8.0,
    discoverable_while_inquiring=True,
    fetch_time_s=0.8,
    mtu_bytes=1400,
)

#: Registry of the technologies PeerHood currently works with (§2.1).
TECHNOLOGIES: dict[str, Technology] = {
    tech.name: tech for tech in (BLUETOOTH, WLAN, GPRS)
}


def get_technology(tech: "str | Technology") -> Technology:
    """Look up a technology by name, with a helpful error; a
    :class:`Technology` is returned unchanged."""
    if isinstance(tech, Technology):
        return tech
    try:
        return TECHNOLOGIES[tech]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGIES))
        raise KeyError(f"unknown technology {tech!r}; known: {known}") from None
