"""Hybrid federation substrate: catalog, sites, sync, cost model, executor."""

from repro import _lazy_exports

_EXPORTS = {
    "Catalog": "catalog",
    "ComboCost": "costmodel",
    "CostModel": "costmodel",
    "CostParameters": "costmodel",
    "ExecutionPolicy": "executor",
    "FaultPlan": "faults",
    "FederatedSystem": "system",
    "FixedSyncSchedule": "catalog",
    "LinkDegradation": "faults",
    "LOCAL_SITE_ID": "catalog",
    "NetworkModel": "network",
    "PlanExecutor": "executor",
    "QueryOutcome": "executor",
    "Replica": "catalog",
    "ReplicationManager": "system",
    "Router": "system",
    "SharedSyncFeed": "catalog",
    "Site": "site",
    "SiteLink": "network",
    "StalenessAudit": "qos",
    "StaticCostProvider": "costmodel",
    "StreamSyncSchedule": "catalog",
    "SyncSchedule": "catalog",
    "SystemConfig": "system",
    "TableDef": "catalog",
    "TableSpec": "system",
    "audit_staleness": "qos",
    "build_schedules": "sync",
    "build_system": "system",
    "schedules_for_staleness_bounds": "qos",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
