"""The reproduction's claims, each stated once.

:data:`RUNNERS` holds one reduced-size run per experiment, each with its
one config.  :data:`CLAIMS` holds every claimed shape as ``(id, figure,
statement, runner, check)``, where ``check(result)`` returns ``(passed,
detail)`` for that runner's result.  ``python -m repro check``, the tier-1
``tests/test_claims.py`` and the timing file
``benchmarks/test_experiments.py`` all iterate these two tables.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import Any, NamedTuple

from repro.experiments.ablations import (
    run_advisor_ablation,
    run_aging_ablation,
    run_ga_ablation,
    run_routing_ablation,
    run_search_ablation,
)
from repro.experiments.config import TpchSetup
from repro.experiments.fig4_walkthrough import run_fig4
from repro.experiments.fig5 import Fig5Config, run_fig5
from repro.experiments.fig6 import Fig6Config, run_fig6
from repro.experiments.fig7 import Fig7Config, run_fig7
from repro.experiments.fig8 import Fig8Config, run_fig8
from repro.experiments.fig9 import run_fig9a, run_fig9b
from repro.experiments.load import LoadConfig, run_load_sweep
from repro.experiments.sensitivity import run_sensitivity
from repro.reporting.tables import ResultTable

__all__ = ["Claim", "Outcome", "RUNNERS", "CLAIMS", "check_all", "render_report"]

_TPCH = TpchSetup(scale=0.001, seed=7)

#: One reduced-size run per experiment (``python -m repro <fig>`` runs
#: full size).
RUNNERS: dict[str, Callable[[], Any]] = {
    "fig4": run_fig4,
    "fig5": lambda: run_fig5(Fig5Config(setup=_TPCH, rounds=1)),
    "fig6": lambda: run_fig6(Fig6Config(setup=TpchSetup(scale=0.002, seed=7))),
    "fig7": lambda: run_fig7(Fig7Config(setup=_TPCH)),
    "fig8": lambda: run_fig8(Fig8Config(site_counts=(2, 10, 22), query_count=60)),
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "abl1": run_aging_ablation,
    "abl2": run_search_ablation,
    "abl3": run_advisor_ablation,
    "abl4": run_routing_ablation,
    "abl5": run_ga_ablation,
    "ext1": run_sensitivity,
    "ext2": lambda: run_load_sweep(
        LoadConfig(setup=_TPCH, interarrival_means=(1.5, 10.0), rounds=1)
    ),
}


class Claim(NamedTuple):
    """One claimed shape of one runner's result."""

    id: str
    figure: str
    statement: str
    runner: str
    check: Callable[[Any], tuple[bool, str]]


class Outcome(NamedTuple):
    """A claim evaluated against its runner's result."""

    claim: Claim
    passed: bool
    detail: str


def _cells(table: ResultTable, value: str, *keys: str) -> dict:
    """``{key: value}`` over the table's rows; a tuple key for many columns."""
    columns = [table.column(key) for key in keys]
    return dict(zip(zip(*columns) if len(keys) > 1 else columns[0],
                    table.column(value)))


def _fig5_dominance(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "mean_iv", "fq_fs", "lambda_sl", "lambda_cl", "approach")
    return all(
        value >= iv[(*cell, baseline)] - 5e-3
        for (*cell, approach), value in iv.items() if approach == "ivqp"
        for baseline in ("federation", "warehouse")
    ), ""


def _fig5_dw_trend(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "mean_iv", "fq_fs", "lambda_sl", "lambda_cl", "approach")
    return all(
        iv[("1:20", *lambdas, "warehouse")] > iv[("1:0.1", *lambdas, "warehouse")]
        for lambdas in {key[1:3] for key in iv}
    ), ""


def _fig5_crossover(*lambdas: float) -> Callable[[ResultTable], tuple[bool, str]]:
    """DW above Federation at 1:20 and below it at 1:0.1, in one λ cell."""

    def check(table: ResultTable) -> tuple[bool, str]:
        iv = _cells(table, "mean_iv", "fq_fs", "lambda_sl", "lambda_cl", "approach")
        return iv[("1:20", *lambdas, "warehouse")] > iv[
            ("1:20", *lambdas, "federation")
        ] and iv[("1:0.1", *lambdas, "warehouse")] < iv[
            ("1:0.1", *lambdas, "federation")
        ], ""

    return check


def _fig6(table: ResultTable) -> list[tuple[float, float, float]]:
    """``(IVQP, Federation, DW)`` computational latency of each query."""
    cl = _cells(table, "cl_minutes", "query", "approach")
    return [
        (value, cl[(query, "federation")], cl[(query, "warehouse")])
        for (query, approach), value in cl.items() if approach == "ivqp"
    ]


def _fig6_per_query(table: ResultTable) -> tuple[bool, str]:
    queries = _fig6(table)
    return len(queries) == 15 and all(
        w <= f + 1e-9 and w - 1e-6 <= i <= f + 2.0 for i, f, w in queries
    ), f"{len(queries)} queries"


def _fig6_means(table: ResultTable) -> tuple[bool, str]:
    queries = _fig6(table)
    ivqp, federation, warehouse = (sum(cl) / len(queries) for cl in zip(*queries))
    return warehouse < ivqp <= federation + 0.25, (
        f"DW {warehouse:.2f} IVQP {ivqp:.2f} Fed {federation:.2f}"
    )


def _fig7_ivqp_below_dw(table: ResultTable) -> tuple[bool, str]:
    sl = _cells(table, "sl_minutes", "fq_fs", "query", "approach")
    ivqp = {key[:2]: value for key, value in sl.items() if key[2] == "ivqp"}
    per_ratio = Counter(ratio for ratio, _ in ivqp)
    return list(per_ratio.values()) == [15] * 3 and all(
        value <= sl[(*cell, "warehouse")] + 1e-6 for cell, value in ivqp.items()
    ), ""


def _fig7_dw_shrinks(table: ResultTable) -> tuple[bool, str]:
    sl = _cells(table, "sl_minutes", "fq_fs", "query", "approach")

    def mean(ratio: str) -> float:
        values = [v for (r, _, a), v in sl.items() if (r, a) == (ratio, "warehouse")]
        return sum(values) / len(values)

    slow, fast = mean("1:1"), mean("1:20")
    return fast < slow, f"1:1 {slow:.2f} -> 1:20 {fast:.2f} min"


def _fig8_wins(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "mean_iv", "placement", "sites", "approach")
    return all(
        value >= iv[(placement, sites, baseline)] - 1e-6
        for (placement, sites, approach), value in iv.items() if approach == "ivqp"
        for baseline in ("federation", "warehouse")
    ), ""


def _fig8_shape(
    approach: str, uniform: bool
) -> Callable[[ResultTable], tuple[bool, str]]:
    """Uniform placement declines from 2 to 22 sites; skewed stays flat past 10."""

    def check(table: ResultTable) -> tuple[bool, str]:
        iv = _cells(table, "mean_iv", "placement", "sites", "approach")
        if uniform:
            return iv[("uniform", 22, approach)] < iv[("uniform", 2, approach)], ""
        return abs(
            iv[("skewed", 22, approach)] - iv[("skewed", 10, approach)]
        ) < 0.02, ""

    return check


def _fig8_uniform_drops_more(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "mean_iv", "placement", "sites", "approach")
    drop = {p: iv[(p, 2, "ivqp")] - iv[(p, 22, "ivqp")] for p in ("uniform", "skewed")}
    return drop["uniform"] > drop["skewed"], (
        f"uniform {drop['uniform']:.3f} skewed {drop['skewed']:.3f}"
    )


def _gains(table: ResultTable) -> dict:
    """Gain % keyed by the swept column (overlap % or query count)."""
    return _cells(table, "gain_pct", table.headers[0])


def _fig9_grows(table: ResultTable) -> tuple[bool, str]:
    gains = _gains(table)
    return gains[50] > gains[30] > gains[10] - 1e-9, (
        f"10%:{gains[10]:.1f} 30%:{gains[30]:.1f} 50%:{gains[50]:.1f}"
    )


def _fig9_gain_at_50(table: ResultTable) -> tuple[bool, str]:
    gains = _gains(table)
    return gains[50] > 50.0, f"measured {gains[50]:.1f}%"


def _never_hurts(table: ResultTable) -> tuple[bool, str]:
    gains = _gains(table)
    return all(gain >= -1e-6 for gain in gains.values()), (
        f"min gain {min(gains.values()):.1f}%"
    )


def _fig9b_grows(table: ResultTable) -> tuple[bool, str]:
    gains = _gains(table)
    large = max(gain for count, gain in gains.items() if count >= 10)
    return large > gains[2], f"2:{gains[2]:.1f} best of 10+:{large:.1f}"


def _fig9b_over_50(table: ResultTable) -> tuple[bool, str]:
    best = max(_gains(table).values())
    return best > 50.0, f"best {best:.1f}%"


def _abl1_wait(table: ResultTable) -> tuple[bool, str]:
    wait = _cells(table, "big_report_wait", "policy")
    return wait["aging"] < wait["no-aging"] / 2, (
        f"{wait['no-aging']:.1f} -> {wait['aging']:.1f} min"
    )


def _abl1_iv_cost(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "mean_iv", "policy")
    return iv["no-aging"] >= iv["aging"], (
        f"{iv['no-aging']:.3f} -> {iv['aging']:.3f}"
    )


def _abl3(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "expected_iv", "placement")
    return iv["advisor"] >= iv["random-5"] - 1e-9 and iv["advisor"] > iv["none"], (
        f"{iv['advisor']:.3f} vs {iv['random-5']:.3f}, none {iv['none']:.3f}"
    )


def _abl4(table: ResultTable) -> tuple[bool, str]:
    # "Faster" as work, not wall time: plans costed per lookup.
    iv = _cells(table, "mean_iv", "router")
    plans = _cells(table, "plans_per_lookup", "router")
    return iv["routing-table"] >= 0.98 * iv["live-search"] and (
        plans["routing-table"] < plans["live-search"]
    ), ""


def _abl5_ga(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "total_iv", "strategy")
    best = max(iv["random-search"], iv["hill-climb"])
    return iv["genetic-algorithm"] >= best - 1e-9, (
        f"GA {iv['genetic-algorithm']:.2f} vs best simple {best:.2f}"
    )


def _abl5_order(table: ResultTable) -> tuple[bool, str]:
    iv = _cells(table, "total_iv", "strategy")
    return all(
        iv[strategy] >= iv["arrival-order"] - 1e-9
        for strategy in ("random-search", "hill-climb", "genetic-algorithm")
    ), f"arrival order {iv['arrival-order']:.2f}"


def _decisions(table: ResultTable) -> dict:
    return _cells(table, "decision", "scenario", "lambda_cl", "lambda_sl")


def _ext1_flips(table: ResultTable) -> tuple[bool, str]:
    decisions = _decisions(table)
    return all(
        decisions[(scenario, 0.01, 0.2)] != decisions[(scenario, 0.2, 0.01)]
        for scenario in ("fig1", "fig2")
    ), ""


def _ext1_corners(
    scenario: str, freshness: str
) -> Callable[[ResultTable], tuple[bool, str]]:
    """λ_SL ≫ λ_CL picks ``freshness``; λ_CL ≫ λ_SL picks the replicas."""

    def check(table: ResultTable) -> tuple[bool, str]:
        decisions = _decisions(table)
        return (
            decisions[(scenario, 0.005, 0.2)] == freshness
            and decisions[(scenario, 0.2, 0.005)] == "all-replica"
        ), ""

    return check


def _ext1_monotone(table: ResultTable) -> tuple[bool, str]:
    decisions = _decisions(table)
    rows = (
        [decisions[("fig1", rate_cl, rate_sl)] for rate_cl in (0.005, 0.05, 0.2)]
        for rate_sl in (0.005, 0.01, 0.02)
    )
    return all(
        set(kinds[kinds.index("all-replica"):]) == {"all-replica"}
        for kinds in rows if "all-replica" in kinds
    ), ""


def _ext2_series(table: ResultTable, column: str) -> dict:
    return _cells(table, column, "interarrival_min", "approach")


def _ext2_degrades(
    column: str, worse: Callable[[float, float], bool]
) -> Callable[[ResultTable], tuple[bool, str]]:
    """Saturating (1.5 min) arrivals are ``worse`` than light (10 min) load."""

    def check(table: ResultTable) -> tuple[bool, str]:
        series = _ext2_series(table, column)
        return all(
            worse(series[(1.5, approach)], series[(10.0, approach)])
            for approach in ("ivqp", "federation")
        ), ""

    return check


def _ext2_dw_flat(table: ResultTable) -> tuple[bool, str]:
    cl = _ext2_series(table, "mean_cl")
    fast, slow = cl[(1.5, "warehouse")], cl[(10.0, "warehouse")]
    return fast < 2.5 * slow, f"{slow:.2f} -> {fast:.2f} min"


def _ext2_ivqp_edge(table: ResultTable) -> tuple[bool, str]:
    iv = _ext2_series(table, "mean_iv")
    return all(
        value >= iv[(mean, "federation")] - 1e-6
        for (mean, approach), value in iv.items() if approach == "ivqp"
    ), ""


def _ext2_beats_dw(table: ResultTable) -> tuple[bool, str]:
    iv = _ext2_series(table, "mean_iv")
    return iv[(10.0, "ivqp")] > iv[(10.0, "warehouse")], (
        f"IVQP {iv[(10.0, 'ivqp')]:.3f} vs DW {iv[(10.0, 'warehouse')]:.3f}"
    )


#: Every claimed shape, in report order.  New claims are appended, so the
#: rows of ``results/check.txt`` keep their place.
CLAIMS: tuple[Claim, ...] = (
    Claim("fig4.scatter_incumbent", "fig4",
          "scatter incumbent equals BV x 0.9^10 x 0.9^10", "fig4",
          lambda o: (abs(o.scatter_iv - 0.9**20) < 1e-12,
                     f"measured {o.scatter_iv:.6f}")),
    Claim("fig4.initial_bound", "fig4", "initial search bound is t = 31", "fig4",
          lambda o: (abs(o.initial_bound - 31.0) < 1e-12,
                     f"measured {o.initial_bound}")),
    Claim("fig4.matches_oracle", "fig4",
          "scatter-and-gather matches the exhaustive oracle", "fig4",
          lambda o: (abs(o.chosen.information_value
                         - o.oracle.information_value) < 1e-9,
                     f"chosen {o.chosen.information_value:.4f}")),
    Claim("fig5.ivqp_dominates", "fig5",
          "IVQP highest IV in every (ratio, lambda) cell", "fig5", _fig5_dominance),
    Claim("fig5.dw_sync_trend", "fig5",
          "Data Warehouse improves with sync frequency", "fig5", _fig5_dw_trend),
    Claim("fig5.dw_crossover", "fig5",
          "DW overtakes Federation by 1:20 (not at 1:0.1)", "fig5",
          _fig5_crossover(0.01, 0.01)),
    Claim("fig8.ivqp_wins", "fig8",
          "IVQP wins at every (placement, sites) point", "fig8", _fig8_wins),
    Claim("fig8.uniform_declines", "fig8",
          "uniform placement degrades with more sites", "fig8",
          _fig8_shape("ivqp", uniform=True)),
    Claim("fig8.skewed_flat", "fig8",
          "skewed placement stays flat past 10 sites", "fig8",
          _fig8_shape("ivqp", uniform=False)),
    Claim("fig9.gain_grows", "fig9", "MQO gain grows with overlap rate", "fig9a",
          _fig9_grows),
    Claim("fig9.gain_at_50", "fig9", "MQO gain exceeds 50% at 50% overlap", "fig9a",
          _fig9_gain_at_50),
    Claim("abl1.aging_bounds_wait", "abl1",
          "aging bounds the starving report's wait", "abl1", _abl1_wait),
    Claim("abl2.matches_oracle", "abl2",
          "scatter-gather equals the oracle on all trials", "abl2",
          lambda t: (all(abs(sg - oracle) < 1e-9 for sg, oracle in
                         zip(t.column("sg_iv"), t.column("oracle_iv"))), "")),
    Claim("abl4.routing_table", "abl4",
          "routing table is near-optimal and faster than search", "abl4", _abl4),
    Claim("abl5.ga_beats_simple", "abl5",
          "GA matches or beats random search and hill climbing", "abl5", _abl5_ga),
    Claim("ext1.decision_flips", "ext1",
          "routing decision flips with the lambda preference", "ext1", _ext1_flips),
    Claim("ext2.saturation_degrades", "ext2",
          "saturating arrivals degrade IVQP and Federation IV", "ext2",
          _ext2_degrades("mean_iv", lambda fast, slow: fast < slow)),
    Claim("fig4.delayed_plan_wins", "fig4",
          "delayed plan beats the scatter incumbent", "fig4",
          lambda o: (o.chosen.delayed
                     and o.chosen.information_value > o.scatter_iv,
                     f"{o.chosen.information_value:.4f} > {o.scatter_iv:.4f}")),
    Claim("fig5.dw_crossover_05", "fig5",
          "DW overtakes Federation at lambda (.05, .05) too", "fig5",
          _fig5_crossover(0.05, 0.05)),
    Claim("fig6.per_query_order", "fig6",
          "per query: DW <= Fed, DW <= IVQP <= Fed + 2 min", "fig6",
          _fig6_per_query),
    Claim("fig6.mean_order", "fig6",
          "mean CL: DW < IVQP <= Federation + 0.25 min", "fig6", _fig6_means),
    Claim("fig6.not_always_lowest", "fig6",
          "IVQP does not always choose the lowest CL", "fig6",
          lambda t: (any(i > w + 1e-6 for i, _, w in _fig6(t)), "")),
    Claim("fig6.leaves_federation", "fig6",
          "IVQP leaves the Federation route for some queries", "fig6",
          lambda t: (any(i < f - 0.5 for i, f, _ in _fig6(t)), "")),
    Claim("fig7.ivqp_sl_at_most_dw", "fig7",
          "IVQP SL <= DW SL for every query at every ratio", "fig7",
          _fig7_ivqp_below_dw),
    Claim("fig7.dw_sl_shrinks", "fig7",
          "DW SL shrinks as syncs speed up", "fig7", _fig7_dw_shrinks),
    Claim("fig8.federation_uniform_declines", "fig8",
          "uniform placement degrades Federation too", "fig8",
          _fig8_shape("federation", uniform=True)),
    Claim("fig8.federation_skewed_flat", "fig8",
          "skewed placement keeps Federation flat past 10 sites", "fig8",
          _fig8_shape("federation", uniform=False)),
    Claim("fig8.uniform_drops_more", "fig8",
          "uniform loses more IVQP IV than skewed, 2->22 sites", "fig8",
          _fig8_uniform_drops_more),
    Claim("fig9.never_hurts", "fig9", "MQO never hurts at any overlap rate", "fig9a",
          _never_hurts),
    Claim("fig9b.never_hurts", "fig9b", "MQO never hurts at any query count", "fig9b",
          _never_hurts),
    Claim("fig9b.gain_grows", "fig9b",
          "10+ queries gain more than 2 queries", "fig9b", _fig9b_grows),
    Claim("fig9b.gain_over_50", "fig9b",
          "MQO gain exceeds 50% at some query count", "fig9b",
          _fig9b_over_50),
    Claim("abl1.aging_costs_iv", "abl1",
          "aging costs mean IV (the stated trade-off)", "abl1", _abl1_iv_cost),
    Claim("abl2.fewer_plans", "abl2",
          "scatter-gather evaluates < 1/3 the oracle's plans", "abl2",
          lambda t: (all(sg < oracle / 3 for sg, oracle in
                         zip(t.column("sg_plans"), t.column("oracle_plans"))), "")),
    Claim("abl3.advisor", "abl3",
          "advisor >= random placement, > no replicas", "abl3",
          _abl3),
    Claim("abl5.beats_arrival_order", "abl5",
          "every budgeted search beats arrival order", "abl5", _abl5_order),
    Claim("ext1.fig1_corners", "ext1",
          "Fig 1: SL-heavy users go remote, CL-heavy replicas",
          "ext1", _ext1_corners("fig1", "all-remote")),
    Claim("ext1.fig1_monotone", "ext1",
          "Fig 1: more lambda_CL never flips back to remote", "ext1",
          _ext1_monotone),
    Claim("ext1.fig2_corners", "ext1",
          "Fig 2: SL-heavy waits for the sync, CL-heavy not", "ext1",
          _ext1_corners("fig2", "delayed")),
    Claim("ext1.known_kinds", "ext1",
          "every decision is one of the four plan kinds", "ext1",
          lambda t: (set(t.column("decision"))
                     <= {"all-remote", "all-replica", "mixed", "delayed"}, "")),
    Claim("ext2.cl_grows", "ext2",
          "saturating arrivals raise IVQP and Federation CL", "ext2",
          _ext2_degrades("mean_cl", lambda fast, slow: fast > slow)),
    Claim("ext2.dw_cl_flat", "ext2",
          "DW CL grows < 2.5x under saturating arrivals", "ext2", _ext2_dw_flat),
    Claim("ext2.ivqp_edge", "ext2",
          "IVQP keeps its edge over Federation at every load", "ext2",
          _ext2_ivqp_edge),
    Claim("ext2.ivqp_beats_dw", "ext2",
          "IVQP beats DW at light load", "ext2", _ext2_beats_dw),
)


def check_all() -> list[Outcome]:
    """Run each runner the claims name once, then evaluate every claim."""
    results = {
        name: RUNNERS[name]() for name in dict.fromkeys(c.runner for c in CLAIMS)
    }
    return [Outcome(c, *c.check(results[c.runner])) for c in CLAIMS]


def render_report(outcomes: list[Outcome]) -> str:
    """A printable PASS/FAIL report."""
    table = ResultTable(
        title="Reproduction check (reduced-size runs; see EXPERIMENTS.md)",
        headers=["figure", "status", "claim", "detail"],
    )
    for claim, passed, detail in outcomes:
        table.add(claim.figure, "PASS" if passed else "FAIL", claim.statement, detail)
    failed = sum(1 for outcome in outcomes if not outcome.passed)
    footer = (
        f"\n{len(outcomes) - failed}/{len(outcomes)} claims hold"
        + (f" — {failed} FAILED" if failed else "")
    )
    return table.render() + footer
