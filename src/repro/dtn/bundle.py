"""Bundles: the store-carry-forward unit of data.

A :class:`Bundle` is an immutable application message in DTN terms
(RFC 4838 vocabulary): source, destination, creation instant, lifetime
and declared size.  It carries no route — custody moves it hop by hop
whenever a contact makes progress possible — and no custodian-local
state except ``copies``, the spray-and-wait token count, which changes
via :func:`dataclasses.replace` when a binary spray splits custody
(bundles stay hashable and comparable by identity, see ``key``).

Units: ``created_at`` and ``ttl_s`` in sim-seconds, ``size_bytes`` in
bytes.
"""

from __future__ import annotations

import dataclasses

#: Default bundle lifetime, sim-seconds.
DEFAULT_TTL_S = 300.0

#: Default declared payload size, bytes.
DEFAULT_SIZE_BYTES = 512


@dataclasses.dataclass(frozen=True)
class Bundle:
    """One application message in flight through the DTN plane.

    ``bundle_id`` is globally unique (the plane derives it from the
    source and a per-source sequence number); two Bundle values with the
    same id but different ``copies`` are the *same* message under
    different custody — summary vectors, delivery records and dedup all
    key on ``bundle_id`` alone.
    """

    bundle_id: str
    source: str
    destination: str
    created_at: float
    ttl_s: float = DEFAULT_TTL_S
    size_bytes: int = DEFAULT_SIZE_BYTES
    copies: int = 1

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValueError(f"ttl must be positive: {self.ttl_s}")
        if self.size_bytes < 0:
            raise ValueError(f"negative size: {self.size_bytes}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1: {self.copies}")
        if self.source == self.destination:
            raise ValueError(
                f"bundle {self.bundle_id!r} sent to its own source")

    @property
    def expires_at(self) -> float:
        """The instant (sim-seconds) this bundle's lifetime ends."""
        return self.created_at + self.ttl_s

    def expired(self, now: float) -> bool:
        """True once ``now`` has reached the expiry instant.  O(1)."""
        return now >= self.expires_at

    def with_copies(self, copies: int) -> "Bundle":
        """The same message under a different spray token count."""
        return dataclasses.replace(self, copies=copies)
