"""PeerHoodNode: one device — world presence + daemon + library.

The convenience aggregate used by scenarios and examples::

    node = PeerHoodNode(fabric, "laptop-d", StaticPosition(0, 0),
                        technologies=["bluetooth", "wlan"],
                        mobility_class="static")
    node.start()
"""

from __future__ import annotations

import typing

from repro.core.config import DaemonConfig
from repro.core.daemon import Daemon
from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.fabric import Fabric
from repro.core.library import PeerHoodLibrary
from repro.mobility.base import MobilityModel
from repro.radio.technologies import Technology, get_technology


class PeerHoodNode:
    """A PeerHood device registered in the world and on the fabric."""

    def __init__(self, fabric: Fabric, name: str, mobility: MobilityModel,
                 technologies: typing.Sequence[Technology | str],
                 mobility_class: "MobilityClass | str | int" = (
                     MobilityClass.DYNAMIC),
                 config: DaemonConfig | None = None):
        self.fabric = fabric
        self.sim = fabric.sim
        self.node_id = name
        self.config = config or DaemonConfig()
        self.technologies: list[Technology] = [
            get_technology(tech) for tech in technologies]
        fabric.world.add_node(name, mobility, self.technologies)
        self.identity = DeviceIdentity.create(
            name, MobilityClass.parse(mobility_class))
        self.daemon = Daemon(self)
        # The checksum is the daemon pid (§2.3, carried but unused); the
        # address is name-derived so re-creating the identity is stable.
        self.identity = DeviceIdentity.create(
            name, MobilityClass.parse(mobility_class),
            checksum=self.daemon.pid)
        self.library = PeerHoodLibrary(self)
        fabric.register(self)

    @property
    def address(self) -> str:
        """The device's MAC-style PeerHood address."""
        return self.identity.address

    def start(self) -> None:
        """Start the daemon (plugins begin inquiring)."""
        self.daemon.start()

    def stop(self) -> None:
        """Stop the daemon (device leaves the PeerHood network)."""
        self.daemon.stop()

    def __repr__(self) -> str:
        techs = ",".join(t.name for t in self.technologies)
        state = "up" if self.daemon.running else "down"
        return (f"<PeerHoodNode {self.node_id} [{techs}] "
                f"{self.identity.mobility.name.lower()} {state}>")
