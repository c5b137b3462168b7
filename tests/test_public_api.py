"""The public API surface: imports, __all__ consistency, quickstart."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.durable",
    "repro.engine",
    "repro.experiments",
    "repro.federation",
    "repro.mqo",
    "repro.obs",
    "repro.reporting",
    "repro.serve",
    "repro.sim",
    "repro.workload",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} needs a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_the_defining_modules_object(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, f"dir({package}) misses {name}"
        source = module._EXPORTS.get(name)
        if source is None:  # bound eagerly in the package itself
            continue
        owner = importlib.import_module(f"{package}.{source}")
        expected = owner if source == name else getattr(owner, name)
        assert getattr(module, name) is expected, f"{package}.{name}"


def test_tpch_queries_stays_the_function_after_its_module_is_imported():
    import repro
    import repro.workload
    import repro.workload.tpch_queries

    function = sys.modules["repro.workload.tpch_queries"].tpch_queries
    assert repro.workload.tpch_queries is function
    assert repro.tpch_queries is function
    assert len(function()) == 22


def test_star_import_binds_every_top_level_name():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_unknown_package_attribute_raises():
    import repro.mqo

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.mqo.no_such_name


def test_batch_loop_names_are_gone():
    """Batch MQO is a one-window online run: the batch loop's result type,
    sweep line and trace kinds are no longer part of the package."""
    import repro.mqo
    from repro.obs import events

    for name in ("ScheduleDecision", "conflict_groups", "execution_ranges"):
        assert name not in repro.mqo.__all__
        assert not hasattr(repro.mqo, name)
    for name in ("MQO_GROUPS", "MQO_GA", "MQO_ORDER"):
        assert name not in events.__all__
        assert not hasattr(events, name)


def _loaded_after(code: str) -> tuple[list[str], list[str]]:
    """``(repro modules, heavy stdlib modules)`` loaded by ``code`` in a
    fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import json, sys\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))\n"
        "print(json.dumps(sorted(m for m in ('multiprocessing',"
        " 'concurrent.futures', 'asyncio') if m in sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, text=True,
        capture_output=True, env={"PYTHONPATH": str(src)},
    ).stdout.splitlines()
    return json.loads(out[0]), json.loads(out[1])


class TestImportGraph:
    """Importing a package loads none of its submodules: an entry point
    loads exactly the modules its code imports."""

    def test_sim_entry_loads_only_the_sim_path(self):
        modules, heavy = _loaded_after("from repro.experiments import scale")
        assert modules == [
            "repro", "repro._version", "repro.core", "repro.core.enumeration",
            "repro.core.plan", "repro.core.value", "repro.errors",
            "repro.experiments", "repro.experiments.scale",
            "repro.federation", "repro.federation.catalog",
            "repro.federation.costmodel", "repro.federation.network",
            "repro.federation.site", "repro.mqo", "repro.mqo.chromosome",
            "repro.mqo.conflict", "repro.mqo.evaluator", "repro.mqo.ga",
            "repro.mqo.online", "repro.obs", "repro.obs.events",
            "repro.obs.ledger", "repro.reporting",
            "repro.reporting.tables", "repro.sim", "repro.sim.clock",
            "repro.sim.clocks", "repro.sim.event", "repro.sim.process",
            "repro.sim.resource", "repro.sim.rng", "repro.sim.scheduler",
            "repro.sim.streams", "repro.sim.timeline", "repro.workload",
            "repro.workload.arrival", "repro.workload.query",
            "repro.workload.tpch_queries",
        ]
        assert heavy == []

    def test_serve_entry_loads_no_experiment_harness(self):
        modules, _heavy = _loaded_after(
            "import repro.durable.journal, repro.serve.httpd, "
            "repro.serve.service"
        )
        assert "repro.serve.service" in modules
        assert [m for m in modules if m.startswith("repro.experiments")] == []

    def test_bare_import_loads_only_the_package(self):
        modules, heavy = _loaded_after("import repro")
        assert set(modules) <= {"repro", "repro._version", "repro.errors"}
        assert heavy == []


def test_version_is_exposed():
    import repro

    assert repro.__version__.count(".") == 2


def test_quickstart_system_runs():
    from repro import quickstart_system

    system, queries = quickstart_system(scale=0.0005)
    assert len(queries) == 22
    system.submit(queries[0], at=5.0)
    system.run()
    assert len(system.outcomes) == 1
    assert 0.0 < system.outcomes[0].information_value <= 1.0


def test_top_level_error_hierarchy():
    import repro
    from repro.errors import (
        CatalogError,
        ConfigError,
        EngineError,
        OptimizationError,
        PlanError,
        ProcessError,
        SchedulingError,
        SimulationError,
        WorkloadError,
    )

    for error in (
        CatalogError, ConfigError, EngineError, OptimizationError,
        PlanError, ProcessError, SchedulingError, SimulationError,
        WorkloadError,
    ):
        assert issubclass(error, repro.ReproError)


def test_public_docstrings_on_core_entry_points():
    from repro import (
        DSSQuery,
        DiscountRates,
        FederatedSystem,
        IVQPOptimizer,
        WorkloadScheduler,
        build_system,
        information_value,
    )

    for obj in (
        DSSQuery, DiscountRates, FederatedSystem, IVQPOptimizer,
        WorkloadScheduler, build_system, information_value,
    ):
        assert obj.__doc__, f"{obj!r} is missing a docstring"
