"""Link-quality model: distance → the PeerHood 0–255 quality scale.

The thesis stores a single integer "link quality" per neighbour (§3.4.1),
compares route qualities additively (Fig. 3.8/3.9) and uses **230** as the
minimum acceptable per-link value (Fig. 3.9) and as the handover "signal
low" threshold (Fig. 5.8).  Quality 255 is a perfect link; 0 means no link.
"""

from __future__ import annotations

#: Top of the PeerHood link-quality scale.
QUALITY_MAX = 255

#: The paper's minimum acceptable per-link quality (Figs. 3.9, 5.8).
PAPER_LOW_QUALITY_THRESHOLD = 230


def clamp_quality(value: float) -> int:
    """Round and clamp a raw quality figure onto the 0–255 scale."""
    return max(0, min(QUALITY_MAX, round(value)))


class PiecewiseLinearQuality:
    """Plateau-then-ramp model matching observed Bluetooth behaviour.

    Real Bluetooth link quality sits near 255 until the device approaches
    the coverage edge, then falls quickly (§5.2.1: "the decrease of
    Bluetooth link quality parameter is really fast").  We model:

    * ``quality = 255`` for ``d <= plateau_fraction * range``;
    * linear ramp from 255 down to ``edge_quality`` at ``d = range``;
    * 0 beyond range (no link).

    With the defaults (plateau 0.5, edge quality 180) the paper's 230
    threshold is crossed at two thirds of the radio range — the device is
    "almost leaving the coverage area" (§3.4.1).
    """

    def __init__(self, plateau_fraction: float = 0.5,
                 edge_quality: int = 180):
        if not 0.0 <= plateau_fraction < 1.0:
            raise ValueError(
                f"plateau fraction out of [0,1): {plateau_fraction}")
        if not 0 <= edge_quality < QUALITY_MAX:
            raise ValueError(f"edge quality out of range: {edge_quality}")
        self.plateau_fraction = plateau_fraction
        self.edge_quality = edge_quality

    def quality(self, distance_m: float, range_m: float) -> int:
        if distance_m < 0:
            raise ValueError(f"negative distance: {distance_m}")
        if range_m <= 0:
            raise ValueError(f"non-positive range: {range_m}")
        if distance_m > range_m:
            return 0
        plateau_end = self.plateau_fraction * range_m
        if distance_m <= plateau_end:
            return QUALITY_MAX
        ramp = (distance_m - plateau_end) / (range_m - plateau_end)
        value = QUALITY_MAX - ramp * (QUALITY_MAX - self.edge_quality)
        return clamp_quality(value)

    def threshold_distance(self, threshold: int,
                           range_m: float) -> float:
        """The ring beyond which ``quality(d) < threshold``.

        Returns ``d*`` such that, for ``threshold >= 1``, ``quality(d) >=
        threshold`` for ``d < d*`` and ``quality(d) < threshold`` for
        ``d > d*``, or ``0.0`` when the threshold is unreachable
        anywhere.  The contact solver predicts quality crossings as
        crossings of this ring.  The rounded quality reads ``>=
        threshold`` while the continuous ramp value is ``>= threshold -
        0.5``, so the ring solves the ramp at that half-unit-shifted
        level; the out-of-range cliff (quality 0 past ``range_m``) caps
        the ring at the coverage radius.
        """
        if threshold > QUALITY_MAX:
            return 0.0
        continuous = threshold - 0.5
        if continuous <= self.edge_quality:
            return range_m
        plateau_end = self.plateau_fraction * range_m
        ramp = (QUALITY_MAX - continuous) / (QUALITY_MAX - self.edge_quality)
        return plateau_end + ramp * (range_m - plateau_end)
