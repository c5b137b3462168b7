"""The synthetic federation shared by the Figure 9 experiments and serving.

:class:`SyntheticSetup` is the synthetic experiment environment of
Sections 4.3–4.4; :func:`build_mqo_stack` turns it into the Figure 9
catalog / cost model / rates, which the serving tier
(:mod:`repro.serve.service`) also runs under live traffic.  It lives
outside :mod:`repro.experiments`, and imports the DES federation only in
the methods that build one, so a service process loads neither.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.core.value import DiscountRates
from repro.data.placement import skewed_placement, uniform_placement
from repro.data.synthetic import SyntheticInstance, generate_synthetic
from repro.errors import ConfigError
from repro.federation.catalog import Catalog, TableDef
from repro.federation.costmodel import CostModel, CostParameters
from repro.federation.sync import build_schedules
from repro.mqo.ga import GAConfig
from repro.sim.rng import RandomSource

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.system import SystemConfig, TableSpec

__all__ = [
    "QUERY_MEAN_INTERARRIVAL",
    "Fig9Config",
    "SyntheticSetup",
    "build_mqo_stack",
    "sync_interval_for_ratio",
]

#: Mean minutes between query arrivals (Fq = 1 / this).
QUERY_MEAN_INTERARRIVAL = 10.0


def sync_interval_for_ratio(ratio: float) -> float:
    """System-wide mean minutes between sync events for one Fq:Fs ratio."""
    if ratio <= 0:
        raise ConfigError(f"Fq:Fs ratio multiplier must be > 0, got {ratio}")
    return QUERY_MEAN_INTERARRIVAL / ratio


@dataclass
class SyntheticSetup:
    """The synthetic experiment environment (Sections 4.3–4.4)."""

    num_tables: int = 100
    num_sites: int = 6
    replicated_count: int = 50
    placement: str = "uniform"  # uniform | skewed
    rows_range: tuple[int, int] = (200, 2000)
    seed: int = 11

    _instance: SyntheticInstance | None = field(default=None, repr=False)

    @property
    def instance(self) -> SyntheticInstance:
        """The generated (cached) synthetic instance."""
        if self._instance is None:
            self._instance = generate_synthetic(
                num_tables=self.num_tables,
                rows_range=self.rows_range,
                seed=self.seed,
            )
        return self._instance

    def placement_map(self) -> dict[str, int]:
        """Table → site under the configured placement policy."""
        rng = RandomSource(self.seed, "placement")
        if self.placement == "uniform":
            return uniform_placement(
                self.instance.table_names, self.num_sites, rng.spawn("uniform")
            )
        if self.placement == "skewed":
            return skewed_placement(
                self.instance.table_names, self.num_sites, rng.spawn("skewed")
            )
        raise ConfigError(f"unknown placement {self.placement!r}")

    def table_specs(self) -> list[TableSpec]:
        """Physical tables under the configured placement."""
        from repro.federation.system import TableSpec

        placement = self.placement_map()
        instance = self.instance
        return [
            TableSpec(
                name,
                site=placement[name],
                row_count=instance.row_counts[name],
            )
            for name in instance.table_names
        ]

    def replicated_for_ivqp(self) -> list[str]:
        """The 50 randomly selected replicas (Section 4.3)."""
        rng = RandomSource(self.seed, "synthetic-replication")
        count = min(self.replicated_count, self.num_tables)
        return sorted(rng.spawn("pick").sample(self.instance.table_names, count))

    def system_config(
        self,
        approach: str,
        rates: DiscountRates,
        sync_mean_interval: float,
        sync_mode: str = "shared",
        seed: int = 1,
    ) -> SystemConfig:
        """A :class:`SystemConfig` for one approach.

        For the synthetic experiments IVQP uses the paper's partial
        replication ("randomly select 50 replications", Section 4.3) —
        full replication of 100 tables over one shared sync budget would be
        hopelessly stale, so partial replication IS the right hybrid
        infrastructure here and IVQP still dominates.
        """
        if approach in ("ivqp", "ivqp-partial"):
            replicated = self.replicated_for_ivqp()
        elif approach == "federation":
            replicated = []
        elif approach == "warehouse":
            replicated = list(self.instance.table_names)
        else:
            raise ConfigError(f"unknown approach {approach!r}")
        from repro.federation.system import SystemConfig

        return SystemConfig(
            tables=self.table_specs(),
            replicated=replicated,
            sync_mode=sync_mode,
            sync_mean_interval=sync_mean_interval,
            rates=rates,
            seed=seed,
        )


@dataclass
class Fig9Config:
    """Parameters of the Figure 9 experiments."""

    num_tables: int = 100
    num_sites: int = 6
    replicated_count: int = 50
    lambda_both: float = 0.15
    ratio_multiplier: float = 10.0
    overlap_rates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    overlap_query_count: int = 12
    query_counts: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14)
    ga: GAConfig = field(default_factory=GAConfig)
    #: Slower servers than the TPC-H experiments: Figure 9 studies a loaded
    #: system, so contention must bite (calibrated in EXPERIMENTS.md).
    cost_params: CostParameters = field(
        default_factory=lambda: CostParameters(
            local_throughput=1_500.0, remote_throughput=600.0
        )
    )
    seed: int = 11
    workload_seed: int = 23
    overlap_seed: int = 31


def build_mqo_stack(
    config: Fig9Config,
) -> tuple[Catalog, CostModel, DiscountRates, SyntheticSetup]:
    """Build the Figure 9 catalog, cost model and discount rates."""
    setup = SyntheticSetup(
        num_tables=config.num_tables,
        num_sites=config.num_sites,
        replicated_count=config.replicated_count,
        placement="uniform",
        seed=config.seed,
    )
    placement = setup.placement_map()
    catalog = Catalog()
    for name in setup.instance.table_names:
        catalog.add_table(
            TableDef(name, placement[name], setup.instance.row_counts[name])
        )
    replicated = setup.replicated_for_ivqp()
    source = RandomSource(config.seed, "fig9")
    schedules = build_schedules(
        replicated,
        mode="shared",
        mean_interval=sync_interval_for_ratio(config.ratio_multiplier),
        source=source,
    )
    for name in replicated:
        catalog.add_replica(name, schedules[name])
    cost_model = CostModel(catalog, params=config.cost_params)
    rates = DiscountRates.symmetric(config.lambda_both)
    return catalog, cost_model, rates, setup
