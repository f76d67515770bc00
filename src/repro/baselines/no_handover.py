"""No-handover control case for the Ch. 5 experiments.

The same client/server workload as the handover experiments, but without a
HandoverThread: when the link dies, the task dies with it — the Fig. 1.1
problem statement.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.errors import PeerHoodError
from repro.core.node import PeerHoodNode
from repro.radio.channel import ConnectFault, OutOfRange

#: Declared size of each streamed message, bytes.
MESSAGE_SIZE_BYTES = 64


@dataclasses.dataclass
class PlainRunOutcome:
    """What happened to an unprotected streaming connection."""

    connected: bool
    messages_attempted: int
    messages_delivered: int
    survived: bool
    failure_time_s: float | None
    error: str = ""


def run_plain_connection(client: PeerHoodNode, server_address: str,
                         service_name: str, message_count: int,
                         interval_s: float,
                         delivered_counter: typing.Callable[[], int],
                         retries: int = 0) -> typing.Generator:
    """Process generator: stream without handover; returns the outcome.

    ``delivered_counter`` reports the server's cumulative delivery count
    (e.g. ``lambda: len(server.printed)``) so loss is measured end to end.
    """
    before = delivered_counter()
    try:
        connection = yield from client.library.connect(
            server_address, service_name, retries=retries)
    except (ConnectFault, OutOfRange, PeerHoodError) as error:
        return PlainRunOutcome(
            connected=False, messages_attempted=0, messages_delivered=0,
            survived=False, failure_time_s=None, error=str(error))
    sim = client.sim
    failure_time = None
    sent = 0
    for index in range(message_count):
        if not connection.is_open:
            failure_time = sim.now
            break
        try:
            connection.write({"seq": index}, MESSAGE_SIZE_BYTES)
        except PeerHoodError:
            failure_time = sim.now
            break
        sent += 1
        yield sim.timeout(interval_s)
    yield sim.timeout(2.0)  # drain the pipe
    delivered = delivered_counter() - before
    if connection.is_open:
        connection.close("plain run complete")
    return PlainRunOutcome(
        connected=True,
        messages_attempted=sent,
        messages_delivered=delivered,
        survived=delivered >= message_count,
        failure_time_s=failure_time)
