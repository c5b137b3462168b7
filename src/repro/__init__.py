"""repro — Information Value-driven Near Real-Time Decision Support Systems.

A full reproduction of Yan, Li and Xu's ICDCS 2009 paper: the information
value model, IVQP plan selection (scatter-and-gather), GA-based multi-query
optimization, the hybrid federation substrate with synchronized replicas,
a discrete-event simulation kernel, calibrated TPC-H and synthetic
data/workloads, the Federation and Data Warehouse baselines,
and harnesses regenerating every figure of the paper's evaluation.

Quick start::

    from repro import quickstart_system
    system, queries = quickstart_system()
    for query in queries[:3]:
        system.submit(query, at=10.0 * query.query_id)
    system.run()
    for outcome in system.outcomes:
        print(outcome.describe())
"""

import importlib

from repro._version import __version__


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__``/``__dir__`` for a package whose public names
    live in its submodules.

    ``exports`` maps each public name to its defining submodule (relative
    to the package); that module is imported on first access and the value
    cached in the package namespace, so importing a package loads none of
    its submodules.  A name mapped to itself is the submodule.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{exports[name]}")
        value = module if exports[name] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


_EXPORTS = {
    "AgingPolicy": "core",
    "Catalog": "federation",
    "CostModel": "federation",
    "DSSQuery": "workload",
    "DiscountRates": "core",
    "FederatedSystem": "federation",
    "GAConfig": "mqo",
    "IVQPOptimizer": "core",
    "NetworkModel": "federation",
    "PlacementAdvisor": "core",
    "QueryPlan": "core",
    "ReproError": "errors",
    "SystemConfig": "federation",
    "TableSpec": "federation",
    "Workload": "workload",
    "WorkloadScheduler": "mqo",
    "build_system": "federation",
    "information_value": "core",
    "tpch_queries": "workload",
}
__all__ = [*_EXPORTS, "__version__", "quickstart_system"]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)


def quickstart_system(scale: float = 0.002, sync_mean_interval: float = 1.0):
    """A ready-to-run TPC-H federated DSS with the IVQP router.

    Returns ``(system, queries)``: a built
    :class:`~repro.federation.system.FederatedSystem` and the 22 TPC-H
    queries, so a first experiment is three lines of code.  ``scale`` must
    be one the TPC-H calibration table lists (seed 7); any other raises
    :class:`~repro.errors.ConfigError` naming ``make calibrate``.
    """
    from repro.baselines import ivqp_router
    from repro.core.value import DiscountRates
    from repro.experiments.config import TpchSetup
    from repro.federation.system import build_system

    setup = TpchSetup(scale=scale)
    config = setup.system_config(
        approach="ivqp",
        rates=DiscountRates(0.01, 0.01),
        sync_mean_interval=sync_mean_interval,
    )
    system = build_system(config, ivqp_router)
    return system, setup.queries()
