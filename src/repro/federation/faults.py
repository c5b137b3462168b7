"""Fault plans and runtime fault injection for the federation.

The paper *assumes* its §3.1 precondition away: "a QoS aware replication
manager is deployed to ensure updates ... within a pre-defined time
frame".  This module stresses that assumption.  A :class:`FaultPlan` is a
seeded, fully pre-scheduled description of what goes wrong in one run:

* **site outages** — down/up windows per remote site (an
  :class:`~repro.sim.faults.OutageTimeline` each);
* **sync failures** — a scheduled synchronization completion is silently
  skipped, or lands late with exponential jitter;
* **link degradation** — windows during which a site's link runs with
  latency/bandwidth multipliers on top of the static
  :class:`~repro.federation.network.NetworkModel`.

Because the plan is deterministic per seed (every decision derives from
hashed substreams, never from shared mutable RNG state), identical seeds
give identical fault timelines — the property tests assert exactly that —
and planners may inspect it: :class:`FaultPlan` satisfies
:class:`AvailabilityView`, the read-only interface the IVQP optimizer and
its plan enumeration use for degraded-mode planning.

The :class:`FaultInjector` is the runtime half: it binds a plan to one
simulation, answers the executor's and replication manager's questions,
and flips ``Site.available`` at window edges for observability.
"""

from __future__ import annotations

import typing
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs import events
from repro.sim.faults import OutageTimeline, Window, generate_outage_windows
from repro.sim.rng import RandomSource

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.catalog import Replica
    from repro.federation.network import NetworkModel
    from repro.federation.site import Site
    from repro.sim.scheduler import Simulator
    from repro.sim.trace import Tracer

__all__ = [
    "SYNC_OK",
    "SYNC_SKIP",
    "SYNC_DELAY",
    "LinkDegradation",
    "AvailabilityView",
    "FaultPlan",
    "FaultInjector",
]

#: Sync disposition kinds returned by :meth:`FaultPlan.sync_disposition`.
SYNC_OK = "ok"
SYNC_SKIP = "skip"
SYNC_DELAY = "delay"


@dataclass(frozen=True)
class LinkDegradation:
    """One window of degraded link service at a site."""

    window: Window
    latency_multiplier: float = 1.0
    bandwidth_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_multiplier < 1.0 or self.bandwidth_multiplier < 1.0:
            raise ConfigError("degradation multipliers must be >= 1")


class AvailabilityView(typing.Protocol):
    """What degraded-mode planners may ask about scheduled faults."""

    def is_site_down(self, site: int, time: float) -> bool:
        """Whether a site is inside a scheduled outage at ``time``."""
        ...  # pragma: no cover - protocol

    def unreliable_sync(self, table: str, time: float) -> bool:
        """Whether the sync completing at ``time`` will skip or slip."""
        ...  # pragma: no cover - protocol


class FaultPlan:
    """A deterministic, pre-scheduled description of one run's faults."""

    def __init__(
        self,
        site_outages: Mapping[int, OutageTimeline] | None = None,
        degradations: Mapping[int, Sequence[LinkDegradation]] | None = None,
        sync_skip_prob: float = 0.0,
        sync_delay_prob: float = 0.0,
        sync_delay_mean: float = 2.0,
        table_sites: Mapping[str, int] | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sync_skip_prob <= 1.0 or not 0.0 <= sync_delay_prob <= 1.0:
            raise ConfigError("sync failure probabilities must be in [0, 1]")
        if sync_skip_prob + sync_delay_prob > 1.0:
            raise ConfigError("sync_skip_prob + sync_delay_prob must be <= 1")
        if sync_delay_mean <= 0:
            raise ConfigError("sync_delay_mean must be > 0")
        self.site_outages: dict[int, OutageTimeline] = dict(site_outages or {})
        self.degradations: dict[int, tuple[LinkDegradation, ...]] = {
            site: tuple(items) for site, items in (degradations or {}).items()
        }
        self.sync_skip_prob = sync_skip_prob
        self.sync_delay_prob = sync_delay_prob
        self.sync_delay_mean = sync_delay_mean
        self.table_sites: dict[str, int] = dict(table_sites or {})
        self.seed = int(seed)
        # (table, completion time) → (kind, delay); hashed-seed draws make
        # the cache purely an optimization — lookups in any order agree.
        self._sync_cache: dict[tuple[str, float], tuple[str, float]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: float,
        site_ids: Sequence[int],
        outage_rate: float = 0.0,
        outage_mean_duration: float = 10.0,
        sync_skip_prob: float = 0.0,
        sync_delay_prob: float = 0.0,
        sync_delay_mean: float = 2.0,
        degradation_rate: float = 0.0,
        degradation_mean_duration: float = 20.0,
        latency_multiplier: float = 4.0,
        bandwidth_multiplier: float = 4.0,
        table_sites: Mapping[str, int] | None = None,
    ) -> "FaultPlan":
        """Draw a reproducible fault plan for one run.

        ``outage_rate`` and ``degradation_rate`` are events per minute per
        site; durations are exponential.  Each site draws from its own
        named substream, so adding a site to a setup never perturbs the
        faults of existing sites.
        """
        source = RandomSource(seed, "faults")
        outages: dict[int, OutageTimeline] = {}
        degradations: dict[int, tuple[LinkDegradation, ...]] = {}
        for site in sorted(set(site_ids)):
            timeline = generate_outage_windows(
                source.spawn(f"outage/{site}"), horizon,
                outage_rate, outage_mean_duration,
            )
            if timeline:
                outages[site] = timeline
            degraded = generate_outage_windows(
                source.spawn(f"degrade/{site}"), horizon,
                degradation_rate, degradation_mean_duration,
            )
            if degraded:
                degradations[site] = tuple(
                    LinkDegradation(window, latency_multiplier, bandwidth_multiplier)
                    for window in degraded.windows
                )
        return cls(
            site_outages=outages,
            degradations=degradations,
            sync_skip_prob=sync_skip_prob,
            sync_delay_prob=sync_delay_prob,
            sync_delay_mean=sync_delay_mean,
            table_sites=table_sites,
            seed=seed,
        )

    # -- site outages -----------------------------------------------------

    def _timeline(self, site: int) -> OutageTimeline | None:
        return self.site_outages.get(site)

    def is_site_down(self, site: int, time: float) -> bool:
        """Whether ``site`` is inside a scheduled outage at ``time``."""
        timeline = self._timeline(site)
        return timeline is not None and timeline.is_down(time)

    def site_up_at(self, site: int, time: float) -> float:
        """Earliest instant ≥ ``time`` at which ``site`` is up."""
        timeline = self._timeline(site)
        if timeline is None:
            return time
        return timeline.up_at(time)

    def next_outage_after(self, site: int, time: float) -> float:
        """Start of the next outage (``time`` if down now, ``inf`` if none)."""
        timeline = self._timeline(site)
        if timeline is None:
            return float("inf")
        return timeline.next_down_after(time)

    # -- link degradation --------------------------------------------------

    def degradation_at(self, site: int, time: float) -> LinkDegradation | None:
        """The degradation window covering ``time`` at ``site``, if any."""
        for degradation in self.degradations.get(site, ()):
            if degradation.window.contains(time):
                return degradation
        return None

    # -- sync failures -----------------------------------------------------

    def sync_disposition(self, table: str, time: float) -> tuple[str, float]:
        """What happens to the sync of ``table`` completing at ``time``.

        Returns ``(kind, delay)`` with ``kind`` one of :data:`SYNC_OK`,
        :data:`SYNC_SKIP`, :data:`SYNC_DELAY`; ``delay`` is the slip in
        minutes (0.0 unless delayed).  A sync whose source site is mid-
        outage is always skipped — the replication manager cannot reach
        the base table.  Every other decision derives from a substream
        hashed on ``(seed, table, time)``, so it is stable regardless of
        lookup order.
        """
        key = (table, time)
        cached = self._sync_cache.get(key)
        if cached is not None:
            return cached
        site = self.table_sites.get(table)
        if site is not None and self.is_site_down(site, time):
            result = (SYNC_SKIP, 0.0)
        elif self.sync_skip_prob == 0.0 and self.sync_delay_prob == 0.0:
            result = (SYNC_OK, 0.0)
        else:
            draw = RandomSource(self.seed, f"sync/{table}/{time!r}")
            toss = draw.uniform(0.0, 1.0)
            if toss < self.sync_skip_prob:
                result = (SYNC_SKIP, 0.0)
            elif toss < self.sync_skip_prob + self.sync_delay_prob:
                result = (SYNC_DELAY, draw.expovariate(1.0 / self.sync_delay_mean))
            else:
                result = (SYNC_OK, 0.0)
        self._sync_cache[key] = result
        return result

    def unreliable_sync(self, table: str, time: float) -> bool:
        """Whether the sync completing at ``time`` will not land on time."""
        return self.sync_disposition(table, time)[0] != SYNC_OK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(outage_sites={sorted(self.site_outages)}, "
            f"skip={self.sync_skip_prob}, delay={self.sync_delay_prob})"
        )


class FaultInjector:
    """Binds a :class:`FaultPlan` to one running simulation.

    The plan is the source of truth (timelines are queried, never raced);
    the injector adds ``Site.available`` toggling at window edges and the
    sync dispositions the replication manager consumes.
    """

    def __init__(
        self,
        sim: "Simulator",
        plan: FaultPlan,
        sites: Mapping[int, "Site"] | None = None,
        network: "NetworkModel | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.sites = dict(sites or {})
        self.network = network
        self.tracer = tracer
        self._started = False

    def _flip(self, site: "Site", available: bool, window: Window) -> None:
        site.set_available(available)
        if self.tracer is not None:
            self.tracer.emit(
                events.FAULT_UP if available else events.FAULT_DOWN,
                f"site:{site.site_id}",
                window_start=window.start,
                window_end=window.end,
            )

    def start(self) -> None:
        """Schedule site availability flips at outage edges (idempotent)."""
        if self._started:
            return
        self._started = True
        now = self.sim.now
        for site_id, timeline in self.plan.site_outages.items():
            site = self.sites.get(site_id)
            for window in timeline.windows:
                if site is None:
                    continue
                if window.start >= now:
                    self.sim.call_at(
                        window.start,
                        lambda s=site, w=window: self._flip(s, False, w),
                    )
                elif window.contains(now):
                    self._flip(site, False, window)
                if window.end >= now:
                    self.sim.call_at(
                        window.end,
                        lambda s=site, w=window: self._flip(s, True, w),
                    )

    # -- executor-facing ---------------------------------------------------

    def site_down(self, site: int, time: float) -> bool:
        """Whether ``site`` is down at ``time``."""
        return self.plan.is_site_down(site, time)

    def site_up_after(self, site: int, time: float) -> float:
        """Earliest instant ≥ ``time`` at which ``site`` is up."""
        return self.plan.site_up_at(site, time)

    def next_outage_after(self, site: int, time: float) -> float:
        """Start of the next outage of ``site`` at or after ``time``."""
        return self.plan.next_outage_after(site, time)

    def leg_penalty(self, site: int, time: float, minutes: float) -> float:
        """Extra minutes a leg starting now at ``site`` pays to degradation.

        The whole leg is scaled by the bandwidth multiplier (remote work
        and shipped bytes both ride the saturated link) and each attempt
        pays the extra connection latency once.
        """
        degradation = self.plan.degradation_at(site, time)
        if degradation is None:
            return 0.0
        base_latency = (
            self.network.link(site).base_latency
            if self.network is not None
            else 0.0
        )
        penalty = minutes * (degradation.bandwidth_multiplier - 1.0)
        penalty += base_latency * (degradation.latency_multiplier - 1.0)
        return penalty

    # -- replication-manager-facing ---------------------------------------

    def sync_disposition(self, replica: "Replica", time: float) -> tuple[str, float]:
        """Disposition of one scheduled sync completion."""
        return self.plan.sync_disposition(replica.name, time)
