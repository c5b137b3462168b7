"""Unit tests: ASCII bar charts and replication confidence intervals."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.replication import MeanCI, replicate, summarize
from repro.reporting.charts import bar_chart, grouped_bar_chart
from repro.reporting.tables import ResultTable


class TestBarChart:
    def test_bars_scale_to_peak(self):
        chart = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_title_and_values_shown(self):
        chart = bar_chart(["x"], [0.5], title="demo")
        assert chart.startswith("demo")
        assert "0.5000" in chart

    def test_explicit_max_value(self):
        chart = bar_chart(["x"], [1.0], width=10, max_value=2.0)
        assert chart.count("#") == 5

    def test_zero_values_render_empty_bars(self):
        chart = bar_chart(["x"], [0.0], width=10)
        assert "#" not in chart

    def test_validation(self):
        with pytest.raises(ConfigError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ConfigError):
            bar_chart([], [])
        with pytest.raises(ConfigError):
            bar_chart(["a"], [-1.0])


class TestGroupedBarChart:
    def make_table(self) -> ResultTable:
        table = ResultTable("t", ["sites", "approach", "mean_iv"])
        for sites in (2, 10):
            table.add(sites, "ivqp", 0.6 - sites * 0.005)
            table.add(sites, "federation", 0.5 - sites * 0.005)
        return table

    def test_one_block_per_group(self):
        chart = grouped_bar_chart(self.make_table(), "sites", "approach",
                                  "mean_iv")
        assert "sites = 2" in chart
        assert "sites = 10" in chart
        assert chart.count("ivqp") == 2

    def test_composite_group_columns(self):
        table = ResultTable("t", ["p", "sites", "approach", "v"])
        table.add("skewed", 2, "ivqp", 0.5)
        table.add("uniform", 2, "ivqp", 0.4)
        chart = grouped_bar_chart(table, ("p", "sites"), "approach", "v")
        assert "p = skewed, sites = 2" in chart
        assert "p = uniform, sites = 2" in chart

    def test_shared_scale_across_groups(self):
        table = ResultTable("t", ["g", "s", "v"])
        table.add("a", "x", 1.0)
        table.add("b", "x", 2.0)
        chart = grouped_bar_chart(table, "g", "s", "v", width=10)
        lines = [line for line in chart.splitlines() if "#" in line]
        assert lines[0].count("#") == 5  # scaled by the global peak (2.0)
        assert lines[1].count("#") == 10

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigError):
            grouped_bar_chart(self.make_table(), "nope", "approach", "mean_iv")


class TestSummarize:
    def test_mean_and_symmetric_interval(self):
        ci = summarize([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.low == pytest.approx(2.0 - ci.half_width)
        assert ci.high == pytest.approx(2.0 + ci.half_width)
        assert ci.samples == 3

    def test_constant_samples_zero_width(self):
        ci = summarize([5.0, 5.0, 5.0, 5.0])
        assert ci.half_width == pytest.approx(0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            summarize([1.0])

    def test_large_sample_uses_normal_quantile(self):
        samples = [float(i % 7) for i in range(100)]
        ci = summarize(samples)
        assert ci.half_width > 0
        assert ci.samples == 100

    def test_overlap_detection(self):
        a = MeanCI(mean=1.0, half_width=0.2, samples=5)
        b = MeanCI(mean=1.3, half_width=0.2, samples=5)
        c = MeanCI(mean=2.0, half_width=0.1, samples=5)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_str_rendering(self):
        assert "±" in str(MeanCI(1.0, 0.1, 3))


class TestReplicate:
    def test_runs_per_seed(self):
        seen = []

        def run(seed: int) -> float:
            seen.append(seed)
            return float(seed)

        ci = replicate(run, seeds=[1, 2, 3])
        assert seen == [1, 2, 3]
        assert ci.mean == pytest.approx(2.0)

    def test_needs_two_seeds(self):
        with pytest.raises(ConfigError):
            replicate(lambda seed: 0.0, seeds=[1])

    def test_experiment_level_replication(self):
        """Replicated TPC-H streams: run-to-run spread is bounded."""
        from repro.core.value import DiscountRates
        from repro.experiments.config import TpchSetup
        from repro.experiments.runner import run_stream

        setup = TpchSetup(scale=0.0005, seed=7)

        def run(seed: int) -> float:
            config = setup.system_config(
                "federation", DiscountRates(0.05, 0.05), 1.0
            )
            return run_stream(
                config, "federation", setup.queries()[:6],
                mean_interarrival=10.0, arrival_seed=seed,
            ).mean_iv

        ci = replicate(run, seeds=[1, 2, 3, 4])
        assert 0.0 < ci.mean < 1.0
        assert ci.half_width < ci.mean  # spread well below the signal
