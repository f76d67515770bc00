"""Gnutella-style flooding search (§3.2).

"Whenever the user wants to do a search, the client would send the request
to each node it is actively connected to ... each node then forwards the
request to all the nodes it is connected to and they in turn forward the
request, and so on, until the packet is from a predetermined number of
'hops' from the sender."

The baseline runs over the same radio world as PeerHood (the overlay edge
set is the in-range graph) and counts every query and response message, so
the §3.2 traffic comparison — flooding per-search cost versus PeerHood's
periodic neighbour exchange — is apples to apples.
"""

from __future__ import annotations

import dataclasses

from repro.metrics.counters import TrafficMeter
from repro.radio.technologies import Technology
from repro.radio.world import World

#: Gnutella's classic default TTL.
DEFAULT_TTL = 7

#: Approximate on-air size of one query / one query-hit, bytes.
QUERY_SIZE_BYTES = 80
HIT_SIZE_BYTES = 120


@dataclasses.dataclass
class SearchResult:
    """Outcome of one flooded search."""

    origin: str
    found_at: list[str]
    query_messages: int
    hit_messages: int
    nodes_reached: int


class GnutellaNode:
    """One overlay node with a resource table."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.resources: set[str] = set()
        self.queries_seen: set[int] = set()

    def add_resource(self, name: str) -> None:
        """Publish a named resource on this node."""
        self.resources.add(name)


class GnutellaNetwork:
    """Flooding search over the radio world's connectivity graph."""

    def __init__(self, world: World, tech: Technology,
                 meter: TrafficMeter | None = None):
        self.world = world
        self.tech = tech
        self.meter = meter or TrafficMeter()
        self.nodes: dict[str, GnutellaNode] = {}
        self._query_counter = 0

    def add_node(self, node_id: str) -> GnutellaNode:
        """Wrap an existing world node as an overlay participant."""
        if not self.world.has_node(node_id):
            raise KeyError(f"world has no node {node_id!r}")
        if node_id in self.nodes:
            raise ValueError(f"overlay node exists: {node_id!r}")
        node = GnutellaNode(node_id)
        self.nodes[node_id] = node
        return node

    def _neighbors(self, node_id: str) -> list[str]:
        return [other for other in self.world.neighbors(node_id, self.tech)
                if other in self.nodes]

    def search(self, origin: str, resource: str,
               ttl: int = DEFAULT_TTL) -> SearchResult:
        """Run one flooded search and tally its traffic.

        The flood is evaluated as a breadth-first wave: each node forwards
        the query to all its overlay neighbours until the TTL runs out;
        duplicate deliveries still cost a message (that is Gnutella's
        problem), but a node forwards each query id only once.  Hits
        travel back along the query path (one message per hop).
        """
        if origin not in self.nodes:
            raise KeyError(f"unknown origin {origin!r}")
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1: {ttl}")
        self._query_counter += 1
        query_id = self._query_counter
        query_messages = 0
        hit_messages = 0
        found_at: list[str] = []
        reached: set[str] = {origin}
        # Frontier entries: (node, remaining_ttl, path_length_from_origin).
        frontier: list[tuple[str, int, int]] = [(origin, ttl, 0)]
        self.nodes[origin].queries_seen.add(query_id)
        while frontier:
            next_frontier: list[tuple[str, int, int]] = []
            for node_id, remaining, depth in frontier:
                if remaining <= 0:
                    continue
                for neighbor_id in self._neighbors(node_id):
                    query_messages += 1
                    self.meter.count(node_id, "query", QUERY_SIZE_BYTES)
                    neighbor = self.nodes[neighbor_id]
                    if query_id in neighbor.queries_seen:
                        continue  # duplicate: delivered but not forwarded
                    neighbor.queries_seen.add(query_id)
                    reached.add(neighbor_id)
                    if resource in neighbor.resources:
                        found_at.append(neighbor_id)
                        # The hit travels back along the same route.
                        hit_messages += depth + 1
                        self.meter.count(neighbor_id, "query",
                                         HIT_SIZE_BYTES * (depth + 1),
                                         messages=depth + 1)
                    next_frontier.append(
                        (neighbor_id, remaining - 1, depth + 1))
            frontier = next_frontier
        return SearchResult(
            origin=origin,
            found_at=sorted(found_at),
            query_messages=query_messages,
            hit_messages=hit_messages,
            nodes_reached=len(reached),
        )
