"""Shared fixtures: small, session-scoped instances of the expensive data."""

from __future__ import annotations

import os
import re

import pytest
from hypothesis import is_hypothesis_test, settings

from repro.core.value import DiscountRates
from repro.data.synthetic import generate_synthetic
from repro.federation.catalog import Catalog, FixedSyncSchedule, TableDef
from repro.federation.costmodel import StaticCostProvider
from repro.sim.rng import RandomSource
from repro.sim.scheduler import Simulator
from repro.workload.query import DSSQuery
from tests.tpch_oracle import generate_tpch, synthetic_database

# -- Hypothesis profiles ------------------------------------------------------
#
# ``tier1`` (the default): every property draws the same examples on every
# machine and every run, and the git-ignored example database plays no
# part — a red run is red for everyone, and a counter-example worth
# keeping is committed as an ``@example``.  ``fuzz`` (`make
# fuzz-properties`) draws fresh randomness with FUZZ_BUDGET times each
# property's own ``max_examples`` and prints what it finds ready to paste.
FUZZ_BUDGET = 10
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)

_FALSIFYING = re.compile(r"Falsifying example: \w+\(\n(.*?)\n\)", re.DOTALL)


def pytest_collection_modifyitems(items) -> None:
    """Under ``fuzz``, scale every property's own example budget."""
    if PROFILE != "fuzz":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        if is_hypothesis_test(test) and test not in scaled:
            scaled.add(test)  # parametrized items share one function
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=FUZZ_BUDGET * own.max_examples
            )


def pasteable_examples(error: BaseException) -> list[str]:
    """Hypothesis's falsifying examples on ``error``, each as ``@example(...)``.

    Pasteable as far as the drawn values have literal reprs (a drawn
    ``Random`` or ``data()`` object does not).
    """
    found = []
    for note in getattr(error, "__notes__", ()):
        for arguments in _FALSIFYING.findall(note):
            kept = [
                line for line in arguments.splitlines()
                if not line.lstrip().startswith("self=")
            ]
            found.append("@example(\n" + "\n".join(kept) + "\n)")
    for inner in getattr(error, "exceptions", ()):  # several distinct failures
        found.extend(pasteable_examples(inner))
    return found


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    if PROFILE == "fuzz" and call.excinfo is not None:
        examples = pasteable_examples(call.excinfo.value)
        if examples:
            outcome.get_result().sections.append(
                ("ready-to-paste @example", "\n".join(examples))
            )


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator starting at t=0."""
    return Simulator()


@pytest.fixture
def rng() -> RandomSource:
    """A deterministic root random source."""
    return RandomSource(12345, "tests")


@pytest.fixture(scope="session")
def tpch_tiny():
    """A tiny generated TPC-H instance, rows and all, shared across the
    whole test session."""
    return generate_tpch(scale=0.0005, seed=7)


@pytest.fixture(scope="session")
def synthetic_small():
    """A small synthetic instance (20 tables)."""
    return generate_synthetic(num_tables=20, rows_range=(30, 120), seed=11)


@pytest.fixture(scope="session")
def synthetic_small_rows(synthetic_small):
    """:func:`synthetic_small`'s tables with their rows materialized."""
    return synthetic_database(synthetic_small, seed=11)


@pytest.fixture(scope="session")
def synthetic_schema_only():
    """A 60-table synthetic instance."""
    return generate_synthetic(num_tables=60, rows_range=(200, 2000), seed=11)


def build_fig4_catalog() -> Catalog:
    """The paper's Figure 4 world: 4 tables, staggered sync cycles."""
    catalog = Catalog()
    for index, (name, (offset, period)) in enumerate(
        {
            "T1": (4.0, 9.0),
            "T2": (6.0, 8.0),
            "T3": (8.0, 8.0),
            "T4": (2.0, 10.5),
        }.items()
    ):
        catalog.add_table(TableDef(name, site=index, row_count=1_000))
        times = [offset + k * period for k in range(8)]
        catalog.add_replica(name, FixedSyncSchedule(times, tail_period=period))
    return catalog


@pytest.fixture
def fig4_world():
    """(catalog, provider, query, rates) of the Figure 4 example."""
    catalog = build_fig4_catalog()
    query = DSSQuery(query_id=1, name="fig4", tables=("T1", "T2", "T3", "T4"))
    provider = StaticCostProvider(
        catalog, {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0, 4: 10.0}
    )
    rates = DiscountRates.symmetric(0.1)
    return catalog, provider, query, rates
