"""Distribution summaries for benchmark tables."""

from __future__ import annotations

import dataclasses
import math
import statistics
import typing


#: Two-sided Student-t critical values at 95% confidence, by degrees of
#: freedom.  Above 30 d.f. the 1.96 normal quantile plus a 2.4/df
#: correction tracks the exact value to within 0.01.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` freedoms."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df in _T95:
        return _T95[df]
    return 1.960 + 2.4 / df


@dataclasses.dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample.

    ``ci95`` is the half-width of the 95% confidence interval on the
    mean (Student-t over the sample), 0.0 for single-observation or
    constant samples — so ``mean ± ci95`` is printable for any n.
    """

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    stdev: float
    ci95: float = 0.0

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.3f} "
                f"median={self.median:.3f} min={self.minimum:.3f} "
                f"max={self.maximum:.3f} sd={self.stdev:.3f} "
                f"ci95={self.ci95:.3f}")


def summarize(values: typing.Sequence[float]) -> Summary:
    """Summarise a non-empty sample."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarise an empty sample")
    stdev = statistics.stdev(data) if len(data) > 1 else 0.0
    if len(data) > 1 and stdev > 0.0:
        ci95 = t_critical_95(len(data) - 1) * stdev / math.sqrt(len(data))
    else:
        ci95 = 0.0
    return Summary(
        count=len(data),
        mean=statistics.fmean(data),
        median=statistics.median(data),
        minimum=min(data),
        maximum=max(data),
        stdev=stdev,
        ci95=ci95,
    )
