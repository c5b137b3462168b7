"""Replica synchronization schedules.

Builds the published synchronization schedule of every replica.  Schedules
are *pre-scheduled* timelines (see :mod:`repro.federation.catalog`): the
simulation's :class:`~repro.federation.system.ReplicationManager` executes
them faithfully and never decides freshness itself, which is what lets the
IVQP optimizer plan against future synchronization points.

Three scheduling modes cover the paper's setups:

* **periodic** — fixed cycles, optionally staggered (Figures 1–4);
* **independent exponential** — each replica refreshes on its own
  ``ExponentialStream`` (JavaSim style);
* **shared exponential** — one system-wide exponential sync budget,
  round-robin over replicas (the Fq:Fs interpretation used for Figure 5;
  see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigError
from repro.federation.catalog import (
    SharedSyncFeed,
    StreamSyncSchedule,
    SyncSchedule,
)
from repro.sim.rng import RandomSource
from repro.sim.streams import ExponentialStream

__all__ = ["build_schedules"]


def build_schedules(
    table_names: Sequence[str],
    mode: str,
    mean_interval: float,
    source: RandomSource,
    stagger: bool = True,
) -> dict[str, SyncSchedule]:
    """Create one schedule per table under the given mode.

    Parameters
    ----------
    table_names:
        The tables to be replicated.
    mode:
        ``"periodic"``, ``"exponential"`` (independent per replica) or
        ``"shared"`` (one budget shared round-robin; each replica then
        refreshes at mean interval ``mean_interval × len(table_names)``).
    mean_interval:
        Mean minutes between completions — per replica for ``periodic`` /
        ``exponential``, system-wide for ``shared``.
    source:
        Random source for stochastic modes and stagger offsets.
    stagger:
        For ``periodic``: give each replica a random phase so completions
        do not align.
    """
    if mean_interval <= 0:
        raise ConfigError(f"mean_interval must be > 0, got {mean_interval}")
    if not table_names:
        raise ConfigError("build_schedules needs at least one table")

    schedules: dict[str, SyncSchedule] = {}
    if mode == "periodic":
        for name in table_names:
            offset = (
                source.spawn(f"stagger/{name}").uniform(0.0, mean_interval)
                if stagger
                else mean_interval
            )
            schedules[name] = StreamSyncSchedule.periodic(
                mean_interval, offset=max(offset, 1e-6)
            )
    elif mode == "exponential":
        for name in table_names:
            stream = ExponentialStream(mean_interval, source.spawn(f"sync/{name}"))
            schedules[name] = StreamSyncSchedule(stream)
    elif mode == "shared":
        feed = SharedSyncFeed(
            ExponentialStream(mean_interval, source.spawn("sync/shared"))
        )
        for name in table_names:
            schedules[name] = feed.member()
    else:
        raise ConfigError(
            f"unknown sync mode {mode!r} (periodic | exponential | shared)"
        )
    return schedules
