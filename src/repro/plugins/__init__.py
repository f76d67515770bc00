"""Network plugins: per-technology discovery loops (§2.2.1, Ch. 3).

One :class:`Plugin` per (node, technology) runs the Fig. 3.12 inquiry
thread.  Technologies differ only in their parameter sets
(:data:`~repro.radio.technologies.TECHNOLOGIES`): the Bluetooth plugin
inherits the technology's asymmetric-discovery behaviour (a scanning
device is undiscoverable, §3.4.2) through the world model; WLAN and
GPRS scan symmetrically.
"""

from __future__ import annotations

import typing

from repro.plugins.base import Plugin
from repro.radio.technologies import TECHNOLOGIES, Technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import PeerHoodNode


def plugin_for(node: "PeerHoodNode", tech: Technology) -> Plugin:
    """The discovery plugin of ``node`` for a known technology.

    Raises ``KeyError`` for a name not in ``TECHNOLOGIES``.
    """
    known = TECHNOLOGIES.get(tech.name)
    if known is None:
        raise KeyError(f"no plugin for technology {tech.name!r}")
    return Plugin(node, known)


__all__ = [
    "Plugin",
    "plugin_for",
]
