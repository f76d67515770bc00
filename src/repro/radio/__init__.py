"""Radio substrate: the simulated physical layer.

The thesis ran on real Bluetooth/WLAN/GPRS hardware.  This package replaces
those radios with a 2-D world model:

* :mod:`~repro.radio.technologies` — per-technology parameter sets
  (coverage radius, connect-time distribution, establishment fault
  probability, bitrate, inquiry behaviour), calibrated from the paper's own
  measurements (Bluetooth bridge connects in 3–18 s with ~30 % faults, §4.3);
* :mod:`~repro.radio.propagation` — log-distance path loss → RSSI, which
  the lossy PHY plane (:mod:`~repro.radio.phy`) decides packet fates from;
* :mod:`~repro.radio.quality` — distance → the PeerHood link-quality
  scale (0–255, "low" threshold 230, §3.4.1/Fig. 5.8);
* :mod:`~repro.radio.spatial` — the uniform spatial-grid index (one grid
  per technology, cell side = coverage radius) that makes neighbor
  enumeration O(neighbors) instead of O(N);
* :mod:`~repro.radio.world` — node positions (driven by mobility models),
  grid-backed range/neighbor queries and quality lookups, plus the paper's
  artificial quality decay fault injection (Fig. 5.8);
* :mod:`~repro.radio.channel` — physical link establishment and framed
  transmission with latency, loss on range exit, and teardown (scheduled
  at the predicted LinkDown instant);
* :mod:`~repro.radio.contacts` — the analytic crossing-time solver:
  closed-form LinkUp/LinkDown and quality-threshold instants over
  piecewise-linear mobility, and guarded bisection under quality
  overrides;
* :mod:`~repro.radio.bus` — the connectivity-event bus that turns those
  predictions into scheduled (and cancellable) kernel events, and the
  :class:`ContactStream` of every pair of a node set built on it.
"""

from repro.radio.bus import (
    ConnectivityBus,
    ConnectivityEvent,
    ContactStream,
    Watch,
)
from repro.radio.channel import (
    ChannelClosed,
    ConnectFault,
    Link,
    LinkEstablisher,
    OutOfRange,
)
from repro.radio.contacts import ContactSolver, Crossing
from repro.radio.phy import (
    PhyPlane,
    PhyProfile,
    PhyTransmission,
    install_scenario_phy,
)
from repro.radio.propagation import LogDistancePathLoss
from repro.radio.spatial import SpatialGrid, WorldStats
from repro.radio.quality import (
    PAPER_LOW_QUALITY_THRESHOLD,
    QUALITY_MAX,
    PiecewiseLinearQuality,
)
from repro.radio.technologies import (
    BLUETOOTH,
    GPRS,
    TECHNOLOGIES,
    WLAN,
    Technology,
)
from repro.radio.world import World

__all__ = [
    "BLUETOOTH",
    "ChannelClosed",
    "ConnectFault",
    "ConnectivityBus",
    "ConnectivityEvent",
    "ContactSolver",
    "ContactStream",
    "Crossing",
    "GPRS",
    "Link",
    "Watch",
    "LinkEstablisher",
    "LogDistancePathLoss",
    "OutOfRange",
    "PAPER_LOW_QUALITY_THRESHOLD",
    "PhyPlane",
    "PhyProfile",
    "PhyTransmission",
    "PiecewiseLinearQuality",
    "QUALITY_MAX",
    "SpatialGrid",
    "TECHNOLOGIES",
    "Technology",
    "WLAN",
    "World",
    "WorldStats",
    "install_scenario_phy",
]
