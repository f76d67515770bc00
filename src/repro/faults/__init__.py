"""Fault injection: crash-reboot, deaf/mute radios, byzantine
beaconers, mobile jammers.

See :mod:`repro.faults.plane` for the live state machine and its
installer; the determinism contract and taxonomy live in
``docs/FAULTS.md``.
"""

from repro.faults.plane import (BYZANTINE, CRASH, DEAF, DEAF_END, JAMMER,
                                MUTE, MUTE_END, REBOOT, SPARE_TERMINALS,
                                FaultEvent, FaultPlane,
                                install_scenario_faults)

__all__ = [
    "BYZANTINE",
    "CRASH",
    "DEAF",
    "DEAF_END",
    "FaultEvent",
    "FaultPlane",
    "JAMMER",
    "MUTE",
    "MUTE_END",
    "REBOOT",
    "SPARE_TERMINALS",
    "install_scenario_faults",
]
