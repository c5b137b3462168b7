"""Sites: the local federation (DSS) server and remote servers.

Each site owns a queueing :class:`~repro.sim.resource.Resource`; queries
contend for it, which is where the paper's "query queuing time" component
of computational latency comes from.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.federation.catalog import LOCAL_SITE_ID
from repro.sim.resource import Resource
from repro.sim.scheduler import Simulator

__all__ = ["LOCAL_SITE_ID", "Site"]


class Site:
    """One server pool (local DSS server or a remote server)."""

    def __init__(
        self,
        sim: Simulator,
        site_id: int,
        name: str = "",
        capacity: int = 1,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"site capacity must be >= 1, got {capacity}")
        self.site_id = site_id
        self.name = name or (
            "local-dss" if site_id == LOCAL_SITE_ID else f"site-{site_id}"
        )
        self.server = Resource(sim, capacity=capacity, name=self.name)

    @property
    def is_local(self) -> bool:
        """Whether this is the local federation server."""
        return self.site_id == LOCAL_SITE_ID

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Site({self.name!r}, in_use={self.server.in_use})"
