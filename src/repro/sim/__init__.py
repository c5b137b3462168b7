"""Discrete-event simulation kernel (the paper's JavaSim substitute).

The ICDCS'09 evaluation drives query arrivals and replica synchronization
with JavaSim's process/stream abstractions.  This subpackage reimplements
them: an event-heap :class:`Simulator`, generator-based :class:`Process`es,
queueing :class:`Resource`s, JavaSim-style random :mod:`streams
<repro.sim.streams>` and statistics :mod:`monitors <repro.sim.monitor>`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AllOf": "event",
    "AnyOf": "event",
    "DeterministicStream": "streams",
    "EmpiricalStream": "streams",
    "ErlangStream": "streams",
    "Event": "event",
    "ExponentialStream": "streams",
    "HyperExponentialStream": "streams",
    "Interrupt": "process",
    "Monitor": "monitor",
    "NormalStream": "streams",
    "PriorityResource": "resource",
    "Process": "process",
    "RandomSource": "rng",
    "RandomStream": "streams",
    "Request": "resource",
    "Resource": "resource",
    "SimulationClock": "clock",
    "Simulator": "scheduler",
    "Tally": "monitor",
    "TimeWeightedMonitor": "monitor",
    "Timeline": "timeline",
    "Timeout": "event",
    "TraceRecord": "trace",
    "Tracer": "trace",
    "UniformStream": "streams",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
