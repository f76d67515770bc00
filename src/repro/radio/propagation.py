"""Path loss: distance → received signal strength (dBm).

The thesis reads Bluetooth RSSI during the short discovery connections
(§3.4.1).  The lossy PHY plane (:mod:`repro.radio.phy`) models received
power with the standard log-distance path-loss law and decides each
packet's fate from it; link quality itself comes from
:mod:`repro.radio.quality`.
"""

from __future__ import annotations

import math


class LogDistancePathLoss:
    """Log-distance path loss with a reference-distance intercept.

    ``PL(d) = pl0_db + 10 * exponent * log10(d / d0)`` and
    ``rssi = tx_power_dbm - PL(d)``.

    Defaults model an indoor Bluetooth class-2 radio: +4 dBm transmit,
    40 dB loss at 1 m, exponent 2.8 (office with obstructions).
    """

    def __init__(self, tx_power_dbm: float = 4.0, pl0_db: float = 40.0,
                 reference_distance_m: float = 1.0, exponent: float = 2.8):
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        self.tx_power_dbm = tx_power_dbm
        self.pl0_db = pl0_db
        self.reference_distance_m = reference_distance_m
        self.exponent = exponent

    def rssi_dbm(self, distance_m: float) -> float:
        """Received power; clamps below the reference distance."""
        if distance_m < 0:
            raise ValueError(f"negative distance: {distance_m}")
        effective = max(distance_m, self.reference_distance_m)
        loss = self.pl0_db + 10.0 * self.exponent * math.log10(
            effective / self.reference_distance_m)
        return self.tx_power_dbm - loss
