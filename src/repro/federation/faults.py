"""Fault plans for the federation.

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
give identical fault timelines — the property tests assert exactly that.
The plan is data that every reader queries directly: the executor (leg
retries, failover, degradation penalties), the replication manager's
sync driver (skipped and slipped syncs) and the IVQP optimizer and its
plan enumeration (degraded-mode planning).  It holds no per-system
state, so one plan may drive any number of systems.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.faults import OutageTimeline, Window, generate_outage_windows
from repro.sim.rng import RandomSource

__all__ = [
    "SYNC_OK",
    "SYNC_SKIP",
    "SYNC_DELAY",
    "LinkDegradation",
    "FaultPlan",
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


class FaultPlan:
    """A deterministic, pre-scheduled description of one run's faults."""

    def __init__(
        self,
        site_outages: Mapping[int, OutageTimeline] | None = None,
        degradations: Mapping[int, Sequence[LinkDegradation]] | None = None,
        sync_skip_prob: float = 0.0,
        sync_delay_prob: float = 0.0,
        sync_delay_mean: float = 2.0,
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
        self.seed = int(seed)
        # (table, site, completion time) → (kind, delay); hashed-seed draws
        # make the cache purely an optimization — lookups in any order agree.
        self._sync_cache: dict[tuple[str, int, float], tuple[str, float]] = {}

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

    def leg_penalty(
        self, site: int, time: float, minutes: float, base_latency: float
    ) -> float:
        """Extra minutes a leg starting at ``time`` at ``site`` pays to
        degradation, on a link whose base latency is ``base_latency``.

        The whole leg is scaled by the bandwidth multiplier (remote work
        and shipped bytes both ride the saturated link) and each attempt
        pays the extra connection latency once.
        """
        degradation = self.degradation_at(site, time)
        if degradation is None:
            return 0.0
        penalty = minutes * (degradation.bandwidth_multiplier - 1.0)
        penalty += base_latency * (degradation.latency_multiplier - 1.0)
        return penalty

    # -- sync failures -----------------------------------------------------

    def sync_disposition(
        self, table: str, site: int, time: float
    ) -> tuple[str, float]:
        """What happens to the sync of ``table`` (based at ``site``)
        completing at ``time``.

        Returns ``(kind, delay)`` with ``kind`` one of :data:`SYNC_OK`,
        :data:`SYNC_SKIP`, :data:`SYNC_DELAY`; ``delay`` is the slip in
        minutes (0.0 unless delayed).  A sync whose source site is mid-
        outage is always skipped — the replication manager cannot reach
        the base table.  Every other decision derives from a substream
        hashed on ``(seed, table, time)``, so it is stable regardless of
        lookup order.
        """
        key = (table, site, time)
        cached = self._sync_cache.get(key)
        if cached is not None:
            return cached
        if self.is_site_down(site, time):
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

    def unreliable_sync(self, table: str, site: int, time: float) -> bool:
        """Whether the sync completing at ``time`` will not land on time."""
        return self.sync_disposition(table, site, time)[0] != SYNC_OK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(outage_sites={sorted(self.site_outages)}, "
            f"skip={self.sync_skip_prob}, delay={self.sync_delay_prob})"
        )
