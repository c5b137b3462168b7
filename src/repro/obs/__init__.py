"""End-to-end observability for the federated DSS runtime.

Three pillars, all built on the :mod:`repro.sim.trace` substrate:

* **query lifecycle spans** (:mod:`repro.obs.events`,
  :mod:`repro.obs.spans`) — every query's path through the system as a
  typed, causally-ordered event stream, assembled into span trees;
* the **IV audit ledger** (:mod:`repro.obs.ledger`) — the exact CL
  decomposition and SL provenance behind every reported information
  value, recomputable bit-identically;
* the **metrics registry** (:mod:`repro.obs.live`) — every counter,
  gauge, rate, quantile and histogram is a fold of the trace, read at
  any instant or after the run (``FederatedSystem.metrics()``).

:mod:`repro.obs.export` serializes traces (JSONL, chrome://tracing) and
:mod:`repro.obs.checker` turns any trace into a self-audit:
``TraceChecker().check(records) == []`` is the system-wide invariant the
test harness locks down.

On top of the trace sit the **live** pillars (see ARCHITECTURE.md §7):
the :mod:`repro.obs.live` fold also keeps sliding-window rates and
streaming quantile sketches, :mod:`repro.obs.slo` evaluates declarative
SLO rules against those live snapshots (emitting ``alert.*`` events back
into the trace), and :mod:`repro.obs.profile` measures the *wall-clock*
(not simulated) cost of the optimizer and executor hot paths.
"""

from repro import _lazy_exports

_EXPORTS = {
    "events": "events",
    "TraceChecker": "checker",
    "Violation": "checker",
    "LiveRegistry": "live",
    "EwmaRate": "live",
    "EwmaMean": "live",
    "WindowCounter": "live",
    "P2Quantile": "live",
    "TableSyncState": "live",
    "FleetCollector": "fleet",
    "ShardTelemetry": "fleet",
    "SLORule": "slo",
    "SLOMonitor": "slo",
    "Alert": "slo",
    "load_slo_rules": "slo",
    "default_slo_rules": "slo",
    "WallProfiler": "profile",
    "ProfileRecord": "profile",
    "IVLedgerEntry": "ledger",
    "VersionProvenance": "ledger",
    "Histogram": "metrics",
    "to_prometheus": "metrics",
    "Span": "spans",
    "build_query_spans": "spans",
    "render_span": "spans",
    "to_jsonl": "export",
    "from_jsonl": "export",
    "write_jsonl": "export",
    "read_jsonl": "export",
    "normalize": "export",
    "to_chrome_trace": "export",
    "ledger_from_records": "export",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
