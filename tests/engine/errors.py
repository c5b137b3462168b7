"""The mini engine's one error type."""

from repro.errors import ReproError


class EngineError(ReproError):
    """The mini relational engine rejected a schema, expression or query."""
