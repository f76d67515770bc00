"""Deterministic traffic generation for DTN workloads.

A traffic pattern is pure data — a list of :class:`Injection` rows —
derived only from a seeded RNG stream and the sorted node list, so the
same scenario seed always produces the same message workload (the
experiment runner's byte-identical-across-workers contract extends to
DTN sweeps unchanged).  The schedule is materialised up front; the
workload replays it with ``Simulator.call_at`` — injections are
scheduled events, not polled loops, matching the forwarder's
event-driven discipline.

Patterns:

* ``uniform`` — random ordered (source, destination) pairs among all
  nodes, injection times uniform over the window;
* ``endpoints`` — messages alternate between two distinct named
  terminals (the commuter-corridor shape: ``home`` ⇄ ``work``, carried
  by commuters);
* ``broadcast`` — one named source addresses every other node once per
  round, times uniform over the window (the flash-crowd shape).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dtn.bundle import DEFAULT_SIZE_BYTES, DEFAULT_TTL_S

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dtn.forwarder import DtnPlane
    from repro.sim.rng import RandomStream

PATTERNS = ("uniform", "endpoints", "broadcast")


@dataclasses.dataclass(frozen=True)
class Injection:
    """One scheduled message: who sends what to whom, when."""

    time: float
    source: str
    destination: str
    size_bytes: int = DEFAULT_SIZE_BYTES
    ttl_s: float = DEFAULT_TTL_S


def generate_traffic(rng: "RandomStream", nodes: typing.Sequence[str],
                     pattern: str, message_count: int,
                     window: tuple[float, float],
                     size_bytes: int = DEFAULT_SIZE_BYTES,
                     ttl_s: float = DEFAULT_TTL_S,
                     source: str | None = None,
                     endpoints: tuple[str, str] | None = None,
                     ) -> list[Injection]:
    """Materialise a deterministic injection schedule.

    ``window`` is ``(start, end)`` in sim-seconds; injections sort by
    (time, source, destination) so replaying them through ``call_at``
    is order-stable.  ``broadcast`` interprets ``message_count`` as the
    number of rounds (each round addresses every other node once).
    O(messages log messages).
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown traffic pattern {pattern!r}; "
                         f"choose from {PATTERNS}")
    names = sorted(nodes)
    if len(names) < 2:
        raise ValueError("traffic needs at least two nodes")
    start, end = window
    if end < start:
        raise ValueError(f"window end before start: {window}")
    rows: list[Injection] = []
    if pattern == "uniform":
        for _ in range(message_count):
            when = rng.uniform(start, end)
            src = rng.choice(names)
            dst = rng.choice([n for n in names if n != src])
            rows.append(Injection(when, src, dst, size_bytes, ttl_s))
    elif pattern == "endpoints":
        if endpoints is None:
            raise ValueError("'endpoints' pattern needs endpoints=(a, b)")
        a, b = endpoints
        for name in (a, b):
            if name not in names:
                raise KeyError(f"endpoint {name!r} is not a plane node")
        if a == b:
            raise ValueError(f"endpoints must differ: {endpoints}")
        for index in range(message_count):
            when = rng.uniform(start, end)
            src, dst = (a, b) if index % 2 == 0 else (b, a)
            rows.append(Injection(when, src, dst, size_bytes, ttl_s))
    else:   # broadcast
        if source is None:
            raise ValueError("'broadcast' pattern needs source=...")
        if source not in names:
            raise KeyError(f"source {source!r} is not a plane node")
        for _round in range(message_count):
            when = rng.uniform(start, end)
            for dst in names:
                if dst != source:
                    rows.append(Injection(when, source, dst,
                                          size_bytes, ttl_s))
    return sorted(rows, key=lambda r: (r.time, r.source, r.destination))


def schedule_traffic(plane: "DtnPlane",
                     injections: typing.Sequence[Injection]) -> int:
    """Arm one ``call_at`` per injection on the plane's simulator.

    Returns the number armed.  An injection whose source is crashed
    when it fires is skipped: a dark node originates nothing.
    """
    sim = plane.sim

    def fire(row: Injection) -> None:
        if plane.crashed(row.source):
            return   # a dark node originates nothing mid-outage; a
                     # crashed *destination* is fine — the bundle waits
        plane.send(row.source, row.destination,
                   size_bytes=row.size_bytes, ttl_s=row.ttl_s)

    for row in injections:
        sim.call_at(max(sim.now, row.time),
                    lambda row=row: fire(row),
                    name=f"dtn-inject:{row.source}->{row.destination}")
    return len(injections)
