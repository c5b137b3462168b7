"""Discrete-event simulation kernel (the paper's JavaSim substitute).

The ICDCS'09 evaluation drives query arrivals and replica synchronization
with JavaSim's process/stream abstractions.  This subpackage reimplements
the part of them the models run: a :class:`Simulator` on the one event
heap (:class:`Timeline`, which the online scheduler's clocks share),
generator-based :class:`Process`es, FIFO :class:`Resource`s, exponential
and deterministic :mod:`streams <repro.sim.streams>` and a :class:`Tracer`
whose records every metric is folded from.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AllOf": "event",
    "AnyOf": "event",
    "DeterministicStream": "streams",
    "Event": "event",
    "ExponentialStream": "streams",
    "Process": "process",
    "RandomSource": "rng",
    "RandomStream": "streams",
    "Request": "resource",
    "Resource": "resource",
    "Simulator": "scheduler",
    "Timeline": "timeline",
    "Timeout": "event",
    "TraceRecord": "trace",
    "Tracer": "trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
