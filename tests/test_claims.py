"""Tests: the claim registry behind ``python -m repro check``.

One registry run per session feeds every claim test: each claim is one
parametrised case, the rendered report must equal the committed
``results/check.txt`` byte for byte, and each runner must have run exactly
once.  Re-capture that file with
``PYTHONPATH=src python -m repro check --output results/check.txt``.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import claims
from repro.experiments.claims import CLAIMS, Claim, Outcome, render_report

CHECK_TXT = Path(__file__).resolve().parents[1] / "results" / "check.txt"


@pytest.fixture(scope="session")
def registry_run() -> tuple[list[Outcome], Counter]:
    """One ``check_all()`` with every runner wrapped to count its calls."""
    calls: Counter = Counter()

    def counted(name, run):
        def wrapper():
            calls[name] += 1
            return run()

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name, run in list(claims.RUNNERS.items()):
            patch.setitem(claims.RUNNERS, name, counted(name, run))
        outcomes = claims.check_all()
    return outcomes, calls


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(registry_run, claim):
    outcomes, _ = registry_run
    outcome = next(o for o in outcomes if o.claim.id == claim.id)
    assert outcome.passed, f"{claim.statement}: {outcome.detail}"


class TestRegistry:
    def test_claim_ids_are_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_check_runs_each_runner_once(self, registry_run):
        _, calls = registry_run
        assert calls == Counter(dict.fromkeys(claims.RUNNERS, 1))

    def test_report_matches_committed_check_txt(self, registry_run):
        outcomes, _ = registry_run
        assert render_report(outcomes) + "\n" == CHECK_TXT.read_text(
            encoding="utf-8"
        )


def _claim(passed: bool) -> Claim:
    return Claim("x.planted", "figX", "planted", "x", lambda _: (passed, "d"))


class TestClaimsAndReport:
    def test_report_renders_pass_and_fail(self):
        report = render_report([
            Outcome(_claim(True), True, "detail-a"),
            Outcome(_claim(False), False, "detail-b"),
        ])
        assert "PASS" in report
        assert "FAIL" in report
        assert "1/2 claims hold" in report
        assert "1 FAILED" in report

    def test_report_all_passing_footer(self):
        report = render_report([Outcome(_claim(True), True, "")])
        assert report.endswith("1/1 claims hold")
        assert "FAILED" not in report

    def test_cli_check_exit_code(self, monkeypatch, capsys):
        """`repro check` exits 0 when all claims pass, 1 otherwise."""
        from repro.experiments import cli

        monkeypatch.setattr(claims, "RUNNERS", {"x": lambda: None})
        monkeypatch.setattr(claims, "CLAIMS", (_claim(True),))
        assert cli.main(["check"]) == 0
        assert "PASS" in capsys.readouterr().out

        monkeypatch.setattr(claims, "CLAIMS", (_claim(False),))
        assert cli.main(["check"]) == 1
        assert "FAIL" in capsys.readouterr().out


def _abl4_table(table_plans: float, table_us: float):
    from repro.reporting.tables import ResultTable

    table = ResultTable(
        title="planted ABL4",
        headers=["router", "mean_iv", "plans_per_lookup", "total_ms",
                 "us_per_lookup"],
    )
    table.add("live-search", 0.50, 11.0, 100.0, 1_000.0)
    table.add("routing-table", 0.50, table_plans, table_us / 10, table_us)
    return table


class TestAbl4CountsWork:
    """``abl4.routing_table`` states "faster than search" as plans costed
    per lookup, so its verdict never depends on the host's clock."""

    def _check(self):
        return next(c for c in CLAIMS if c.id == "abl4.routing_table").check

    def test_fewer_plans_passes_whatever_the_clock_says(self):
        assert self._check()(_abl4_table(4.0, 1_000.0))[0]
        assert self._check()(_abl4_table(4.0, 5_000.0))[0]

    def test_a_table_costing_as_many_plans_as_search_fails(self):
        assert not self._check()(_abl4_table(11.0, 10.0))[0]
