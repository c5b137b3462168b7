"""Capacity-constrained resources (servers) with queueing.

The paper's *computational latency* includes "query queuing time": queries
contend for the local federation server and for each remote server.  A
:class:`Resource` models one such server pool; requests queue FIFO and are
granted as units free up.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.errors import SimulationError
from repro.sim.event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulator

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending claim on a resource unit.

    Fires (with the request itself as value) once the unit is granted.
    Release by passing it back to :meth:`Resource.release`.
    """

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=f"Request({resource.name})")
        self.resource = resource
        self.requested_at = resource.sim.now
        self.granted_at: float | None = None

    @property
    def wait_time(self) -> float:
        """Minutes spent queueing, or time-so-far if still pending."""
        end = self.granted_at if self.granted_at is not None else self.sim.now
        return end - self.requested_at

    def cancel(self) -> None:
        """Withdraw a still-queued request."""
        self.resource._cancel(self)


class Resource:
    """A FIFO server pool with integral ``capacity``."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name or "resource"
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Requests still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self)
        self._queue.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit to the pool."""
        if request not in self._users:
            raise SimulationError(
                f"release of a request that does not hold {self.name!r}"
            )
        self._users.discard(request)
        self._dispatch()

    def _cancel(self, request: Request) -> None:
        if request in self._users:
            raise SimulationError("cannot cancel a granted request; release it")
        if request in self._queue:
            self._queue.remove(request)

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            req.granted_at = self.sim.now
            self._users.add(req)
            req.succeed(req)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name!r}, capacity={self.capacity}, "
            f"in_use={self.in_use}, queued={self.queue_length})"
        )
