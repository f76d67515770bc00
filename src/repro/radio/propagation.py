"""Path loss: distance → received signal strength (dBm).

The thesis reads Bluetooth RSSI during the short discovery connections
(§3.4.1).  The lossy PHY plane (:mod:`repro.radio.phy`) models received
power with the standard log-distance path-loss law and decides each
packet's fate from it; link quality itself comes from
:mod:`repro.radio.quality`.
"""

from __future__ import annotations

import math


#: Loss at the reference distance (dB), the reference distance (m) and
#: the path-loss exponent: an indoor office with obstructions.
PL0_DB = 40.0
REFERENCE_DISTANCE_M = 1.0
EXPONENT = 2.8


class LogDistancePathLoss:
    """Log-distance path loss with a reference-distance intercept.

    ``PL(d) = PL0_DB + 10 * EXPONENT * log10(d / REFERENCE_DISTANCE_M)``
    and ``rssi = tx_power_dbm - PL(d)``.  The default transmit power
    models a Bluetooth class-2 radio (+4 dBm).
    """

    def __init__(self, tx_power_dbm: float = 4.0):
        self.tx_power_dbm = tx_power_dbm

    def rssi_dbm(self, distance_m: float) -> float:
        """Received power; clamps below the reference distance."""
        if distance_m < 0:
            raise ValueError(f"negative distance: {distance_m}")
        effective = max(distance_m, REFERENCE_DISTANCE_M)
        loss = PL0_DB + 10.0 * EXPONENT * math.log10(
            effective / REFERENCE_DISTANCE_M)
        return self.tx_power_dbm - loss
