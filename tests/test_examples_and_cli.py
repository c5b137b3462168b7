"""Smoke tests: every example runs end-to-end; the CLI dispatches."""

from __future__ import annotations

import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))


def _run_example(name: str, capsys) -> str:
    module = __import__(name)
    try:
        module.main()
    finally:
        sys.modules.pop(name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run_example("quickstart", capsys)
        assert "mean information value" in out
        assert "route=" in out

    def test_fraud_detection(self, capsys):
        out = _run_example("fraud_detection", capsys)
        assert "fraud-screen-east" in out
        assert "Figure 1's trade-off" in out

    def test_asset_exposure(self, capsys):
        out = _run_example("asset_exposure", capsys)
        assert "MQO recovered" in out
        assert "VaR report waited" in out

    def test_placement_advisor(self, capsys):
        out = _run_example("placement_advisor", capsys)
        assert "advisor 5" in out or "advisor" in out
        assert "expected IV" in out

    def test_logistics_dispatch(self, capsys):
        out = _run_example("logistics_dispatch", capsys)
        assert "QoS audit" in out
        assert "hit rate" in out
        assert "VIOLATED" not in out

    def test_paper_walkthrough(self, capsys):
        out = _run_example("paper_walkthrough", capsys)
        assert "scatter incumbent" in out
        assert "CHOSEN" in out
        assert "report 1 wins" in out
        assert "report 2 wins" in out


class TestCli:
    def test_fig4_runs(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "scatter_incumbent_iv" in out
        assert "chosen_plan" in out

    def test_fig4_json_format(self, capsys):
        import json

        from repro.experiments.cli import main

        assert main(["fig4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        first = out.split("\n\n")[0]
        payload = json.loads(first)
        assert payload["title"].startswith("Figure 4")

    def test_output_to_file(self, tmp_path, capsys):
        from repro.experiments.cli import main

        target = tmp_path / "fig4.csv"
        assert main(["fig4", "--format", "csv", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "quantity,value" in target.read_text()

    def test_unknown_experiment_rejected(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["figZZ"])

    def test_registry_covers_all_figures(self):
        from repro.experiments.cli import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "ablations", "sensitivity", "load", "faults", "stream-mqo",
            "scale",
        }


@pytest.mark.slow
class TestLiveCli:
    def test_stream_mqo_live_metrics_dashboard(self, capsys):
        from repro.experiments.cli import main

        assert main(["stream-mqo", "--live-metrics"]) == 0
        out = capsys.readouterr().out
        assert "gauges" in out and "quantiles" in out
        assert "alert" in out
        assert "trace-check" in out

    def test_live_metrics_with_profile_and_html(self, tmp_path, capsys):
        from repro.experiments.cli import main

        report = tmp_path / "live.html"
        assert main([
            "stream-mqo", "--live-metrics", "--profile",
            "--html", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "ga.run" in out            # profiler attribution surfaced
        html = report.read_text()
        assert html.startswith("<!DOCTYPE html>") or "<html" in html
        assert "gauges" in html

    def test_live_metrics_with_slo_file(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main
        from repro.obs import default_slo_rules

        rules = tmp_path / "slo.json"
        rules.write_text(json.dumps(
            [rule.to_dict() for rule in default_slo_rules()]
        ))
        assert main([
            "stream-mqo", "--live-metrics", "--slo", str(rules),
        ]) == 0
        assert "trace-check" in capsys.readouterr().out

    def test_live_flags_require_live_metrics(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["fig4", "--live-metrics"])
        with pytest.raises(SystemExit):
            main(["stream-mqo", "--profile"])
