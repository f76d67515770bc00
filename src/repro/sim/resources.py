"""The one queueing primitive built on events.

:class:`Store` is an unbounded FIFO with a blocking ``get``: it models
sockets' receive queues and the daemon⇄library local-socket hop.  The
thesis' critical zones (§3.5, §4.2) need no lock here, because the kernel
runs each event callback to completion before the next one starts.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (mobile-device sockets in the thesis buffer in the
    kernel); ``get`` returns an event that fires with the oldest item.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: collections.deque[object] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending_getters(self) -> int:
        """Number of blocked ``get`` calls."""
        return len(self._getters)

    def put(self, item: object) -> None:
        """Append ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        request = Event(self.sim, f"get:{self.name}")
        if self._items:
            request.succeed(self._items.popleft())
        else:
            self._getters.append(request)
        return request
