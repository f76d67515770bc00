"""Host-time benchmark of the PeerHood simulator (see perf/README.md).

``perf/run.py`` measures four workloads end to end, ``perf/compare.py``
compares two result files against the bounds in ``BENCHMARK.json``.
"""
