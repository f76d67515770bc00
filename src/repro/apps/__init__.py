"""Example applications built on the PeerHood library API.

These are the workloads of the thesis' experiments:

* :mod:`~repro.apps.message_test` — the §4.3 bridge performance test
  (a client sends a message 20 times at 1 s intervals; the server prints);
* :mod:`~repro.apps.picture_analysis` — the §5.3 picture-analysis task
  migration (upload N packages, remote processing, result routed back;
  ``examples/picture_migration.py``);
* :mod:`~repro.apps.coverage_amplification` — the Fig. 6.1 tunnel relay
  (a phone reaches a GPRS gateway through a Bluetooth bridge chain;
  ``examples/tunnel_relay.py``).
"""

from repro.apps.message_test import MessageTestClient, MessageTestServer
from repro.apps.picture_analysis import (
    PictureAnalysisClient,
    PictureAnalysisServer,
    PictureJobResult,
)

__all__ = [
    "MessageTestClient",
    "MessageTestServer",
    "PictureAnalysisClient",
    "PictureAnalysisServer",
    "PictureJobResult",
]
