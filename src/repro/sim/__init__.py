"""Discrete-event simulation kernel (the paper's JavaSim substitute).

The ICDCS'09 evaluation drives query arrivals and replica synchronization
with JavaSim's process/stream abstractions.  This subpackage reimplements
them: an event-heap :class:`Simulator`, generator-based :class:`Process`es,
queueing :class:`Resource`s, JavaSim-style random :mod:`streams
<repro.sim.streams>` and statistics :mod:`monitors <repro.sim.monitor>`.
"""

from repro.sim.clock import SimulationClock
from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.monitor import Monitor, Tally, TimeWeightedMonitor
from repro.sim.process import Interrupt, Process
from repro.sim.resource import PriorityResource, Request, Resource
from repro.sim.rng import RandomSource
from repro.sim.scheduler import Simulator
from repro.sim.timeline import Timeline
from repro.sim.trace import TraceRecord, Tracer
from repro.sim.streams import (
    DeterministicStream,
    EmpiricalStream,
    ErlangStream,
    ExponentialStream,
    HyperExponentialStream,
    NormalStream,
    RandomStream,
    UniformStream,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "DeterministicStream",
    "EmpiricalStream",
    "ErlangStream",
    "Event",
    "ExponentialStream",
    "HyperExponentialStream",
    "Interrupt",
    "Monitor",
    "NormalStream",
    "PriorityResource",
    "Process",
    "RandomSource",
    "RandomStream",
    "Request",
    "Resource",
    "SimulationClock",
    "Simulator",
    "Tally",
    "TimeWeightedMonitor",
    "Timeline",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "UniformStream",
]

