"""Discrete-event network simulation substrate.

Replaces the paper's physical testbed (1.2 GHz Pentium M hosts on a LAN):
virtual clock + link models give the network time, while the *real*
cryptographic work performed by the entities is measured and folded in as
CPU time (see :class:`repro.sim.clock.VirtualClock`).
"""

from repro.sim.clock import VirtualClock
from repro.sim.faults import (
    BrokerCrash,
    DuplicateDelivery,
    Fault,
    FaultInjector,
    FaultPlan,
    FrameLoss,
    LatencyJitter,
    LinkOutage,
    Partition,
)
from repro.sim.latency import CAMPUS, LAN_2009, LOOPBACK, PROFILES, WAN_ADSL, LinkModel
from repro.sim.network import Frame, SimNetwork
from repro.sim.rng import SimRandom
from repro.sim.scheduler import EventHandle, Scheduler

__all__ = [
    "VirtualClock",
    "Scheduler",
    "EventHandle",
    "SimNetwork",
    "Frame",
    "LinkModel",
    "LAN_2009",
    "LOOPBACK",
    "WAN_ADSL",
    "CAMPUS",
    "PROFILES",
    "SimRandom",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "FrameLoss",
    "LatencyJitter",
    "DuplicateDelivery",
    "LinkOutage",
    "Partition",
    "BrokerCrash",
]
