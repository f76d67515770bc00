"""PeerHood-level exceptions.

These sit above the radio-level errors (:class:`~repro.radio.channel.
ConnectFault`, :class:`~repro.radio.channel.OutOfRange`,
:class:`~repro.radio.channel.ChannelClosed`): the library maps physical
failures into these application-visible ones.
"""

from __future__ import annotations


class PeerHoodError(Exception):
    """Base class for PeerHood middleware errors."""


class NoRouteError(PeerHoodError):
    """The destination device is not in the DeviceStorage at all."""


class TargetNotAvailableError(PeerHoodError):
    """The peer exists in the world but no daemon/engine answers there."""


class ServiceNotFoundError(PeerHoodError):
    """The remote daemon does not expose the requested service."""


class BridgeRefusedError(PeerHoodError):
    """A bridge node declined to relay (chain failure or at capacity)."""


class ConnectionClosedError(PeerHoodError):
    """Read or write on a PeerHood connection that has been torn down."""
