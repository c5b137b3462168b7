"""Typed trace-event kinds for the observability subsystem.

Every producer in the runtime emits :class:`~repro.sim.trace.TraceRecord`\\ s
with one of these ``kind`` strings, so consumers (the span builder, the
exporters, the :class:`~repro.obs.checker.TraceChecker`) can pattern-match
without scraping free-form text.  Query-lifecycle events always carry a
``qid`` detail key — query *names* repeat across rounds of a stream, ids
never do.

Lifecycle of one query (happy path)::

    submit → plan → exec.start → leg.start/leg.granted/leg.done (per site)
           → remote.done → local.granted → local.done → complete

with ``ledger`` carrying the full IV audit record at completion time.
"""

from __future__ import annotations

__all__ = [
    "SUBMIT", "PLAN", "EXEC_START",
    "LEG_START", "LEG_BLOCKED", "LEG_GRANTED", "LEG_RETRY", "LEG_DONE",
    "LEG_EXHAUSTED", "FAILOVER", "REMOTE_DONE",
    "LOCAL_GRANTED", "LOCAL_DONE", "COMPLETE", "FAILED", "LEDGER",
    "SYNC_APPLY", "SYNC_SKIP", "SYNC_DELAY",
    "FAULT_DOWN", "FAULT_UP",
    "MQO_WINDOW", "MQO_ADMIT", "MQO_SHED",
    "ALERT_OPEN", "ALERT_CLOSE",
    "CHECKPOINT", "RESUME",
    "QUERY_LIFECYCLE_KINDS", "LEG_KINDS", "ALERT_KINDS", "DURABLE_KINDS",
]

# -- query lifecycle (subject = query name, detail carries qid) ------------
SUBMIT = "submit"              #: query entered the system
PLAN = "plan"                  #: router chose a plan
EXEC_START = "exec.start"      #: executor began (after any planned delay)
LEG_START = "leg.start"        #: one remote leg asked its site for service
LEG_BLOCKED = "leg.blocked"    #: leg found its site down, waiting out outage
LEG_GRANTED = "leg.granted"    #: remote server granted the leg
LEG_RETRY = "leg.retry"        #: leg withdrew/lost work and will retry
LEG_DONE = "leg.done"          #: leg finished; detail carries freshness
LEG_EXHAUSTED = "leg.exhausted"  #: leg gave up its site (retries spent)
FAILOVER = "failover"          #: lost tables re-planned onto replicas
REMOTE_DONE = "remote.done"    #: all remote legs settled
LOCAL_GRANTED = "local.granted"  #: local federation server granted
LOCAL_DONE = "local.done"      #: local assembly finished
COMPLETE = "complete"          #: result received; detail carries cl/sl/iv
FAILED = "failed"              #: query produced no result (IV 0)
LEDGER = "ledger"              #: IV audit ledger entry (full decomposition)

# -- replication (subject = replica/table name) ----------------------------
SYNC_APPLY = "sync"            #: a synchronization landed
SYNC_SKIP = "sync.skip"        #: a scheduled sync was skipped (fault)
SYNC_DELAY = "sync.delay"      #: a scheduled sync slipped (fault)

# -- fault injection (subject = "site:<id>") -------------------------------
FAULT_DOWN = "fault.down"      #: site outage window opened
FAULT_UP = "fault.up"          #: site outage window closed

# -- MQO, batch and online (subject = "window:<n>" / query name) -----------
MQO_WINDOW = "mqo.window"      #: one re-optimization pass (detail: index/order)
MQO_ADMIT = "mqo.admit"        #: query admitted to the pending queue
MQO_SHED = "mqo.shed"          #: query shed by admission control (IV floor)

# -- durability (subject = "journal") --------------------------------------
CHECKPOINT = "durable.checkpoint"  #: a session snapshot was journaled (detail: pops)
RESUME = "durable.resume"          #: a crashed run was recovered (detail: pops)

# -- SLO monitoring (subject = "slo:<rule>") -------------------------------
ALERT_OPEN = "alert.open"      #: an SLO rule entered breach (detail: value/threshold/since)
ALERT_CLOSE = "alert.close"    #: the breach cleared (detail: value/opened_at)

#: Kinds that participate in a per-query span tree.
QUERY_LIFECYCLE_KINDS = frozenset({
    SUBMIT, PLAN, EXEC_START, LEG_START, LEG_BLOCKED, LEG_GRANTED,
    LEG_RETRY, LEG_DONE, LEG_EXHAUSTED, FAILOVER, REMOTE_DONE,
    LOCAL_GRANTED, LOCAL_DONE, COMPLETE, FAILED, LEDGER,
})

#: Kinds emitted by remote legs (detail carries ``site``).
LEG_KINDS = frozenset({
    LEG_START, LEG_BLOCKED, LEG_GRANTED, LEG_RETRY, LEG_DONE, LEG_EXHAUSTED,
})

#: Kinds emitted by the SLO monitor.
ALERT_KINDS = frozenset({ALERT_OPEN, ALERT_CLOSE})

#: Kinds emitted by the durability layer (checkpoint/resume boundaries).
DURABLE_KINDS = frozenset({CHECKPOINT, RESUME})
