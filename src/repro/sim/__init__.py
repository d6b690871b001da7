"""Discrete-event simulation substrate.

This package replaces the paper's AWS testbed (see DESIGN.md): a
deterministic event-heap scheduler (:mod:`repro.sim.engine`), lossless FIFO
point-to-point channels with a geo latency model (:mod:`repro.sim.network`,
:mod:`repro.sim.latency`), fault injection for network partitions
(:mod:`repro.sim.faults`) and seeded RNG streams (:mod:`repro.sim.rng`).
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.faults import FaultInjector
from repro.sim.latency import (
    ConstantLatency,
    GeoLatencyModel,
    LatencyModel,
    UniformLatency,
)
from repro.sim.network import Endpoint, Network, NetworkStats
from repro.sim.rng import RngRegistry

__all__ = [
    "ConstantLatency",
    "Endpoint",
    "EventHandle",
    "FaultInjector",
    "GeoLatencyModel",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "RngRegistry",
    "Simulator",
    "UniformLatency",
]
