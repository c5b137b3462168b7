"""Small-surface tests: corners the dedicated suites do not reach."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.sim.rng import RandomSource
from repro.sim.scheduler import Simulator
from tests.engine.schema import Column, DType


class TestDTypeWidths:
    def test_every_dtype_has_a_width(self):
        for dtype in DType.ALL:
            assert DType.WIDTH[dtype] > 0

    def test_column_width(self):
        assert Column("s", DType.STR).width_bytes == 24
        assert Column("i", DType.INT).width_bytes == 8


class TestRandomSourceConvenience:
    def test_sample_and_choice_are_deterministic(self):
        a = RandomSource(5, "x")
        b = RandomSource(5, "x")
        population = list(range(20))
        assert a.sample(population, 5) == b.sample(population, 5)
        assert a.choice(population) == b.choice(population)

    def test_shuffle_in_place(self):
        source = RandomSource(5, "x")
        items = list(range(10))
        source.shuffle(items)
        assert sorted(items) == list(range(10))

    def test_gauss_and_randint(self):
        source = RandomSource(5, "x")
        assert 1 <= source.randint(1, 3) <= 3


class TestOutcomeDescribe:
    def test_describe_mentions_latencies(self, fig4_world):
        from repro.core.enumeration import make_plan
        from repro.federation.executor import QueryOutcome

        catalog, provider, query, rates = fig4_world
        plan = make_plan(
            query, catalog, provider, rates, 11.0, 11.0,
            frozenset(query.tables),
        )
        outcome = QueryOutcome(
            plan=plan, submitted_at=11.0, started_at=11.0,
            completed_at=21.0, data_timestamp=11.0, queue_wait=0.0,
        )
        text = outcome.describe()
        assert "CL=10.00" in text
        assert "IV=" in text
        assert outcome.query is query


class TestErrorHierarchyMessages:
    def test_errors_carry_messages(self):
        try:
            Simulator().step()
        except ReproError as error:
            assert "empty event queue" in str(error)
        else:  # pragma: no cover
            pytest.fail("step on empty queue must raise")


class TestExecutionStatsOperators:
    def test_operator_counting(self):
        from tests.engine.expr import Col
        from tests.engine.ops import ExecutionStats, Filter, Scan
        from tests.engine.schema import TableSchema
        from tests.engine.table import Table

        table = Table(
            TableSchema("t", (Column("x", DType.INT),)), rows=[(1,), (2,)]
        )
        stats = ExecutionStats()
        node = Filter(Scan(table, "t", stats), Col("t.x") > 1)
        list(node)
        assert stats.operators == 2


class TestSelectMidCostVariants:
    def test_smaller_selection_counts(self):
        from repro.experiments.config import TpchSetup
        from repro.experiments.fig6 import select_mid_cost_queries

        setup = TpchSetup(scale=0.0005, seed=7)
        for count in (5, 10, 22):
            selected = select_mid_cost_queries(setup, count=count)
            assert len(selected) == count
            ids = [query.query_id for query in selected]
            assert ids == sorted(ids)
