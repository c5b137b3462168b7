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

#: sha256 of ``repro trace <scenario> --metrics --trace-format jsonl``'s
#: stdout: the trace plus the post-hoc metrics document, pinned through the
#: CLI so the pin holds whatever the metrics code looks like inside.
GOLDEN_TRACE_METRICS = {
    "fig4": "262ba396bb123bf9959fa304a3f11e030b688fb43e1bac55cc674d0eb5a5e22e",
    "stream": "2c239bb7af8dc362b4a1c721a883747d6d46748407bf22ebd2e053c72ee19a1d",
    "faults": "3a652e57b8224666fd66c8bba7a44a8e7d1d786166aa132474f440a9296c85da",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_TRACE_METRICS))
def test_trace_metrics_output_is_pinned(scenario, capsys):
    argv = ["trace", scenario, "--metrics", "--trace-format", "jsonl"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TRACE_METRICS[scenario]


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
