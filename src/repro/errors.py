"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped simulator."""


class ProcessError(SimulationError):
    """A simulation process yielded something the kernel cannot interpret."""


class CatalogError(ReproError):
    """A table or replica lookup failed, or a catalog was mis-configured."""


class PlanError(ReproError):
    """A query plan is malformed or infeasible (e.g. missing a version)."""


class OptimizationError(ReproError):
    """The IVQP optimizer or the MQO scheduler could not produce a plan."""


class WorkloadError(ReproError):
    """A workload or query specification is invalid."""


class ConfigError(ReproError):
    """An experiment or system configuration is invalid."""


class DurabilityError(ReproError):
    """A journal or snapshot is corrupt, truncated, or inconsistent.

    ``offset`` is the byte offset of the first bad record in the journal
    file (``None`` when the failure is not tied to a file position), so
    operators can inspect exactly where a torn write landed.
    """

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message)
        self.offset = offset
