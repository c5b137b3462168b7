"""The public API surface: imports, __all__ consistency, quickstart."""

from __future__ import annotations

import ast
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
    import repro.workload.tpch

    function = sys.modules["repro.workload.tpch"].tpch_queries
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


def test_fleet_spool_names_are_gone():
    """A shard returns its trace in its result: the spool writer, its
    reader and its frame schema are no longer part of ``repro.obs``."""
    import repro.obs
    from repro.obs import fleet

    for name in ("ShardSpoolWriter", "read_spool", "SPOOL_SCHEMA"):
        assert name not in repro.obs.__all__
        assert not hasattr(repro.obs, name)
        assert not hasattr(fleet, name)


def test_post_hoc_metrics_names_are_gone():
    """A system's metrics are the fold of its trace: the post-hoc registry
    and the Welford ``Monitor`` it read are no longer part of the package."""
    import repro.obs
    import repro.sim
    from repro.obs import metrics

    assert "registry_from_system" not in repro.obs.__all__
    assert not hasattr(repro.obs, "registry_from_system")
    assert not hasattr(metrics, "registry_from_system")
    assert "Monitor" not in repro.sim.__all__
    assert not hasattr(repro.sim, "Monitor")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.monitor")


def test_unread_state_names_are_gone():
    """State and options nothing in the package read back: the MQO
    evaluator's availability view, the injector's ``FaultStats``, the GA's
    stats pass-through and a resource's running totals."""
    import dataclasses
    import inspect

    import repro.federation
    from repro.federation import faults
    from repro.mqo.evaluator import EvaluatorStats, WorkloadEvaluator
    from repro.mqo.ga import GAResult, GeneticAlgorithm
    from repro.sim.resource import Resource
    from repro.sim.scheduler import Simulator

    assert "FaultStats" not in repro.federation.__all__
    assert not hasattr(repro.federation, "FaultStats")
    assert not hasattr(faults, "FaultStats")
    assert "availability" not in inspect.signature(WorkloadEvaluator).parameters
    assert "evaluator_stats" not in inspect.signature(
        GeneticAlgorithm
    ).parameters
    assert "evaluator_stats" not in {f.name for f in dataclasses.fields(GAResult)}
    assert "candidates_unavailable" not in {
        f.name for f in dataclasses.fields(EvaluatorStats)
    }
    resource = Resource(Simulator())
    resource.request()
    assert not hasattr(resource, "total_requests")
    assert not hasattr(resource, "total_wait")


def test_fault_binding_names_are_gone():
    """Every reader of scheduled faults reads the ``FaultPlan`` itself: no
    injector, no one-implementer protocol, no table→site map inside the
    plan, no site availability flag, no ledger switch apart from the tracer
    and no report wrapper around ``run_differences``."""
    import inspect

    import repro.durable
    import repro.federation
    from repro.durable import harness
    from repro.federation import faults
    from repro.federation.executor import PlanExecutor
    from repro.federation.site import Site
    from repro.federation.system import FederatedSystem, ReplicationManager
    from repro.sim.scheduler import Simulator

    for name in ("FaultInjector", "AvailabilityView"):
        assert name not in repro.federation.__all__
        assert not hasattr(repro.federation, name)
        assert not hasattr(faults, name)
    assert "table_sites" not in inspect.signature(faults.FaultPlan).parameters
    assert "table_sites" not in inspect.signature(
        faults.FaultPlan.generate
    ).parameters
    assert not hasattr(faults.FaultPlan(), "table_sites")
    site = Site(Simulator(), 0)
    assert not hasattr(site, "available")
    assert not hasattr(site, "set_available")
    assert "audit" not in inspect.signature(PlanExecutor).parameters
    assert "injector" not in inspect.signature(ReplicationManager).parameters
    assert "injector" not in inspect.signature(FederatedSystem).parameters
    assert "runs_equivalent" not in repro.durable.__all__
    assert not hasattr(repro.durable, "runs_equivalent")
    assert not hasattr(harness, "runs_equivalent")


def _loaded_after(code: str) -> tuple[list[str], list[str]]:
    """``(repro modules, heavy stdlib modules)`` loaded by ``code`` in a
    fresh interpreter (``-B``: the probe writes no bytecode into ``src/``)."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import json, sys\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))\n"
        "print(json.dumps(sorted(m for m in ('multiprocessing',"
        " 'concurrent.futures', 'asyncio') if m in sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", probe], check=True, text=True,
        capture_output=True, env={"PYTHONPATH": str(src)},
    ).stdout.splitlines()
    return json.loads(out[0]), json.loads(out[1])


#: What a serving process must not load: TPC-H, the DES kernel and DES
#: federation, the trace checker and the batch scheduler.
_NOT_SERVING = (
    "repro.data.tpch", "repro.workload.tpch", "repro.sim.scheduler", "repro.sim.process",
    "repro.sim.resource", "repro.sim.event", "repro.sim.faults",
    "repro.federation.system", "repro.federation.executor", "repro.federation.faults",
    "repro.federation.site", "repro.obs.checker", "repro.mqo.scheduler",
    "repro.core.aging",
)


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
            "repro.mqo", "repro.mqo.chromosome",
            "repro.mqo.conflict", "repro.mqo.evaluator", "repro.mqo.ga",
            "repro.mqo.online", "repro.obs", "repro.obs.events",
            "repro.obs.ledger", "repro.reporting",
            "repro.reporting.tables", "repro.sim",
            "repro.sim.clocks", "repro.sim.rng",
            "repro.sim.streams", "repro.sim.timeline", "repro.workload",
            "repro.workload.arrival", "repro.workload.query",
        ]
        assert heavy == []

    def test_serve_entry_loads_no_experiment_harness(self):
        modules, _heavy = _loaded_after(
            "import repro.durable.journal, repro.serve.httpd, "
            "repro.serve.service"
        )
        assert "repro.serve.service" in modules
        assert [m for m in modules if m.startswith("repro.experiments")] == []

    def test_serve_entry_loads_only_what_serves(self):
        modules, heavy = _loaded_after(
            "import repro.durable.journal, repro.serve.httpd\n"
            "from repro.serve.service import QueryService, ServeConfig\n"
            "QueryService(ServeConfig())"
        )
        assert modules == [
            "repro", "repro._version", "repro.core",
            "repro.core.enumeration", "repro.core.plan", "repro.core.value",
            "repro.data", "repro.data.placement", "repro.data.synthetic",
            "repro.durable", "repro.durable.journal",
            "repro.durable.recovery", "repro.errors", "repro.federation",
            "repro.federation.catalog", "repro.federation.costmodel",
            "repro.federation.network", "repro.federation.sync",
            "repro.mqo", "repro.mqo.chromosome", "repro.mqo.conflict",
            "repro.mqo.evaluator", "repro.mqo.ga", "repro.mqo.online",
            "repro.obs", "repro.obs.events", "repro.obs.ledger",
            "repro.obs.live", "repro.obs.metrics", "repro.obs.slo",
            "repro.serve", "repro.serve.httpd", "repro.serve.service",
            "repro.sim", "repro.sim.clocks", "repro.sim.rng",
            "repro.sim.streams", "repro.sim.timeline", "repro.sim.trace",
            "repro.testbed", "repro.workload", "repro.workload.generator",
            "repro.workload.query", "repro.workload.serialize",
        ]
        assert [m for m in modules if m.startswith(_NOT_SERVING)] == []
        assert "multiprocessing" not in heavy

    def test_cli_imports_a_subcommand_when_it_runs(self):
        modules, heavy = _loaded_after(
            "import contextlib, io\n"
            "from repro.experiments.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--version'])\n"
            "    except SystemExit:\n"
            "        pass"
        )
        assert modules == [
            "repro", "repro._version", "repro.experiments",
            "repro.experiments.cli",
        ]
        assert heavy == []

    def test_obs_imports_no_durable_module(self):
        """``obs`` sits below ``durable``: no module under ``repro.obs``
        names ``repro.durable`` in an import, at any depth."""
        obs = Path(__file__).resolve().parents[1] / "src" / "repro" / "obs"
        found = []
        for path in sorted(obs.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                found.extend(
                    f"{path.name}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[:2] == ["repro", "durable"]
                )
        assert found == []

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
        OptimizationError,
        PlanError,
        ProcessError,
        SchedulingError,
        SimulationError,
        WorkloadError,
    )

    for error in (
        CatalogError, ConfigError, OptimizationError,
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
