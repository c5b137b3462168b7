"""Golden-trace regression: the fig4 walkthrough's trace is frozen.

``tests/golden/fig4_trace.jsonl`` is the canonical, committed trace of the
paper's Figure 4 scatter-and-gather walkthrough executed on the runtime.
Any behaviour change in the planner, executor, replication manager or
tracer shows up as a diff against this file.  To regenerate after an
*intentional* change::

    PYTHONPATH=src python - <<'EOF'
    from repro.experiments.trace_scenarios import trace_fig4
    from repro.obs import normalize
    with open('tests/golden/fig4_trace.jsonl', 'w') as handle:
        handle.write(normalize(trace_fig4().tracer.records) + '\n')
    EOF
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.experiments import cli
from repro.experiments.trace_scenarios import trace_fig4
from repro.obs import TraceChecker, from_jsonl, ledger_from_records, normalize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fig4_trace.jsonl"

#: ``repro trace <scenario> --metrics --trace-format jsonl``'s stdout is
#: the trace, a blank line, then the metrics document (the fold of that
#: trace).  Each half is pinned by its own sha256, through the CLI, so a
#: change to how metrics are derived shows which half moved.
GOLDEN_TRACE_METRICS = {
    "fig4": (
        "2a01b3648f06f327fd425d57e9bdbce73095aeed3caec3255b70442c1319ae25",
        "a52d267d657b2c97951fb2294bef4a739dd6fd73746b0d4381507550d09625f0",
    ),
    "stream": (
        "ebafb305302c937067a6030f5c92e060802c2ce8b89a15f5198fc44cc2f4814f",
        "8ac116d6990f14b919a70639c5a3dad63c6b20ce00a8e525536af2d4e3460461",
    ),
    "faults": (
        "cee768f2ddf5a6d971060fc2b5f7669b7cb875ef8102ccc05866b5db6611bfd3",
        "392b63feb17a6d5af4be53af8c66ac1968000be96331bad57ee37687ed5aab7d",
    ),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_TRACE_METRICS))
def test_trace_metrics_output_is_pinned(scenario, capsys):
    argv = ["trace", scenario, "--metrics", "--trace-format", "jsonl"]
    assert cli.main(argv) == 0
    trace, metrics = capsys.readouterr().out.split("\n\n", 1)
    digests = tuple(
        hashlib.sha256(half.encode("utf-8")).hexdigest()
        for half in (trace, metrics)
    )
    assert digests == GOLDEN_TRACE_METRICS[scenario]


def test_fig4_trace_matches_golden():
    system = trace_fig4()
    expected = GOLDEN.read_text()
    assert normalize(system.tracer.records) + "\n" == expected


def test_golden_trace_passes_the_checker():
    TraceChecker().assert_clean(from_jsonl(GOLDEN.read_text()))


def test_golden_ledger_recomputes_paper_iv():
    records = from_jsonl(GOLDEN.read_text())
    (entry,) = ledger_from_records(records)
    # The walkthrough's headline numbers (ICDCS 2009, Figure 4): the chosen
    # plan starts at the T2 sync point, reads T3 from its base site and the
    # other three tables from replicas, with the result as-of T4's refresh.
    assert entry.submitted_at == 11.0
    assert entry.started_at == 14.0
    assert entry.completed_at == 18.0
    assert entry.computational_latency == 7.0
    assert entry.data_timestamp == 12.5
    assert entry.synchronization_latency == 5.5
    assert entry.recompute_iv() == entry.reported_iv
    assert entry.stalest is not None and entry.stalest.table == "T4"
    kinds = {version.table: version.kind for version in entry.versions}
    assert kinds == {
        "T1": "replica", "T2": "replica", "T3": "base", "T4": "replica"
    }


#: sha256 of the normalized trace of the ``faults`` scenario re-run with a
#: queue timeout: the one DES path none of the digests above covers —
#: ``AnyOf`` racing a request against its timer, ``Request.cancel`` on the
#: loser, and ``AllOf`` joining multi-leg plans after outage interrupts.
GOLDEN_LEG_TIMEOUT_TRACE = (
    "9f1a980adb52c3738b3d62d8062cfd9e0d9f8b8f80f598ec2ac71fbe2d5f5438"
)


def test_leg_timeout_trace_is_pinned():
    from collections import Counter

    from repro.core.value import DiscountRates
    from repro.experiments.config import TpchSetup, sync_interval_for_ratio
    from repro.experiments.runner import run_stream
    from repro.federation.executor import ExecutionPolicy
    from repro.federation.faults import FaultPlan

    # ``trace_faults``'s setup, with ``leg_timeout`` added to its policy.
    setup = TpchSetup(scale=0.002, seed=7)
    config = setup.system_config(
        approach="ivqp",
        rates=DiscountRates.symmetric(0.05),
        sync_mean_interval=sync_interval_for_ratio(10.0),
        seed=1,
    )
    config.fault_plan = FaultPlan.generate(
        seed=17,
        horizon=4_000.0,
        site_ids=sorted({spec.site for spec in setup.table_specs()}),
        outage_rate=0.01,
        outage_mean_duration=8.0,
        sync_skip_prob=0.05,
        sync_delay_prob=0.10,
    )
    config.execution_policy = ExecutionPolicy(
        max_retries=3, retry_backoff=0.5, leg_timeout=2.0, failover=True
    )
    result = run_stream(
        config,
        approach="ivqp",
        queries=setup.queries()[:12],
        mean_interarrival=8.0,
        trace=True,
    )
    records = result.system.tracer.records
    retries = Counter(r.detail["reason"] for r in records if r.kind == "leg.retry")
    assert retries["queue-timeout"] >= 1
    assert retries["interrupted"] >= 1
    assert any(
        r.detail["legs"] >= 2 for r in records if r.kind == "remote.done"
    )
    digest = hashlib.sha256(normalize(records).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_LEG_TIMEOUT_TRACE
