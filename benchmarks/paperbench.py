"""Shared helpers for the paper-reproduction benchmarks.

Each ``bench_e<N>_*.py`` file regenerates one evaluation artifact of
the thesis (see the "Benchmarks" paragraph of the README's "Tests and
benchmarks" section).  The pattern: a pure ``run_*`` function produces
the figures, ``benchmark.pedantic`` times one full run, the test asserts
the paper's *shape*, and the reproduced rows are printed (visible with
``-s``, e.g. ``make bench``; ``pytest benchmarks/`` collects nothing, so
name the files) and attached to ``benchmark.extra_info``.
"""

from __future__ import annotations

# Table rendering lives in the metrics layer (shared with the experiment
# report command); re-exported here so every bench keeps its import.
from repro.metrics.tables import print_table

__all__ = ["fraction", "print_table"]


def fraction(numerator: int, denominator: int) -> float:
    """Safe ratio."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
