"""Declarative SLO rules evaluated live over a streaming run.

An :class:`SLORule` names one metric of the :class:`~repro.obs.live.LiveRegistry`
snapshot (dotted path, e.g. ``"quantiles.query.sl.p95"``), a breach
comparison and thresholds with **hysteresis**: the alert opens when the
metric crosses ``threshold`` (after an optional ``min_dwell`` of sustained
breach, to suppress flapping on a single bad sample) and only closes once
the metric comes back past ``clear`` — which may be stricter than
``threshold``, so a metric hovering at the line doesn't open/close every
record.

:class:`SLOMonitor` reads its rules' metrics as the run streams by (attach
it after a :class:`LiveRegistry` on the same tracer so it always reads
up-to-date state) and emits typed ``alert.open`` / ``alert.close`` trace events,
each carrying the rule name, the observed value, the thresholds and the
breach window — the :class:`~repro.obs.checker.TraceChecker` audits that
these alternate and reference real times, and
:meth:`SLOMonitor.replay` re-derives the expected alerts from any trace
so coverage ("every breach was alerted") is itself checkable.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs import events
from repro.obs.live import LiveRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "SLORule",
    "Alert",
    "SLOMonitor",
    "load_slo_rules",
    "default_slo_rules",
]

_OPS = ("above", "below")


@dataclass(frozen=True)
class SLORule:
    """One declarative service-level objective.

    Attributes
    ----------
    name:
        Unique rule name; the alert subject is ``slo:<name>``.
    metric:
        Dotted path into a live snapshot, e.g. ``"gauges.query.iv.realization"``
        or ``"quantiles.query.sl.p95"`` (first segment picks the snapshot
        section, the rest is the metric key).
    op:
        ``"above"`` breaches when the metric exceeds ``threshold``;
        ``"below"`` when it falls under.
    threshold:
        The breach line.
    clear:
        Hysteresis: the value the metric must come back past to close the
        alert (defaults to ``threshold``).  For ``op="above"`` it must be
        <= threshold, for ``"below"`` >= threshold.
    min_dwell:
        Sim minutes the breach must persist before the alert opens (0 =
        open on first breached evaluation).
    """

    name: str
    metric: str
    op: str
    threshold: float
    clear: float | None = None
    min_dwell: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise SimulationError(
                f"SLO rule {self.name!r}: op must be one of {_OPS}, got {self.op!r}"
            )
        if "." not in self.metric:
            raise SimulationError(
                f"SLO rule {self.name!r}: metric must be a dotted snapshot "
                f"path, got {self.metric!r}"
            )
        if self.min_dwell < 0:
            raise SimulationError(
                f"SLO rule {self.name!r}: min_dwell must be >= 0"
            )
        if self.clear is not None:
            ordered = (
                self.clear <= self.threshold
                if self.op == "above"
                else self.clear >= self.threshold
            )
            if not ordered:
                raise SimulationError(
                    f"SLO rule {self.name!r}: clear {self.clear} is on the "
                    f"wrong side of threshold {self.threshold} for {self.op!r}"
                )

    @property
    def clear_threshold(self) -> float:
        """The close line (``clear`` or, unset, ``threshold``)."""
        return self.threshold if self.clear is None else self.clear

    def breached(self, value: float) -> bool:
        """Whether ``value`` is past the breach line."""
        return value > self.threshold if self.op == "above" else value < self.threshold

    def cleared(self, value: float) -> bool:
        """Whether ``value`` is back past the close line."""
        clear = self.clear_threshold
        return value <= clear if self.op == "above" else value >= clear

    def read(self, snapshot: dict) -> float | None:
        """Extract this rule's metric from a live snapshot (None if absent)."""
        section, _, key = self.metric.partition(".")
        table = snapshot.get(section)
        if not isinstance(table, dict):
            return None
        value = table.get(key)
        return value if isinstance(value, (int, float)) else None

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        data = {
            "name": self.name,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
        }
        if self.clear is not None:
            data["clear"] = self.clear
        if self.min_dwell:
            data["min_dwell"] = self.min_dwell
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SLORule":
        """Build a rule from a JSON object."""
        try:
            return cls(
                name=data["name"],
                metric=data["metric"],
                op=data["op"],
                threshold=float(data["threshold"]),
                clear=None if data.get("clear") is None else float(data["clear"]),
                min_dwell=float(data.get("min_dwell", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SimulationError(f"malformed SLO rule: {data!r}") from error


@dataclass
class Alert:
    """One realized breach window of a rule."""

    rule: str
    opened_at: float
    value: float            #: metric value when the alert opened
    closed_at: float | None = None
    close_value: float | None = None

    @property
    def open(self) -> bool:
        """Whether the breach is still active."""
        return self.closed_at is None


@dataclass
class _RuleState:
    breach_since: float | None = None   #: first breached evaluation of this episode
    alert: Alert | None = None          #: the currently open alert
    last_value: float | None = None     #: latest observed metric value


class SLOMonitor:
    """Evaluates SLO rules against live snapshots, emitting alert events.

    Call :meth:`attach` with the tracer *after* the registry attached so
    that on each record the registry folds first and the monitor reads the
    updated state (its rules' metrics alone, :meth:`LiveRegistry.read`);
    or drive :meth:`evaluate` manually from any snapshot source.
    """

    def __init__(
        self,
        rules: "Sequence[SLORule]",
        registry: LiveRegistry,
        tracer: "Tracer | None" = None,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate SLO rule names")
        self.rules = list(rules)
        self.registry = registry
        self.tracer = tracer
        self.alerts: list[Alert] = []
        self._states: dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }

    # -- wiring -------------------------------------------------------------

    def attach(self, tracer: "Tracer") -> "SLOMonitor":
        """Evaluate after every future record of ``tracer``; returns self."""
        self.tracer = tracer
        tracer.subscribe(self._on_record)
        return self

    def _on_record(self, record: "TraceRecord") -> None:
        # Alert events are this monitor's own output: evaluating on them
        # would recurse (open emits → subscriber fires → evaluate …).
        if record.kind in events.ALERT_KINDS:
            return
        self._fold(record.time)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, snapshot: dict, now: float) -> None:
        """Fold one snapshot: open/close alerts per rule with hysteresis."""
        self._fold(now, snapshot)

    def _fold(self, now: float, snapshot: dict | None = None) -> None:
        for rule in self.rules:  # no snapshot: read the rule's metric alone
            value = (rule.read(snapshot) if snapshot is not None
                     else self.registry.read(rule.metric, now))
            if value is None:
                continue
            state = self._states[rule.name]
            state.last_value = value
            if state.alert is None:
                if rule.breached(value):
                    if state.breach_since is None:
                        state.breach_since = now
                    if now - state.breach_since >= rule.min_dwell:
                        state.alert = Alert(
                            rule=rule.name, opened_at=now, value=value
                        )
                        self.alerts.append(state.alert)
                        self._emit(
                            events.ALERT_OPEN, rule, value=value,
                            since=state.breach_since,
                        )
                else:
                    state.breach_since = None
            elif rule.cleared(value):
                state.alert.closed_at = now
                state.alert.close_value = value
                self._emit(
                    events.ALERT_CLOSE, rule, value=value,
                    opened_at=state.alert.opened_at,
                )
                state.alert = None
                state.breach_since = None

    def finalize(self, now: float) -> list[Alert]:
        """Close every still-open alert at end of run.

        A run (or service) that stops while a rule is breaching would
        otherwise leave its last ``alert.open`` dangling — the trace fails
        the checker's alert-alternation audit and the HTML dashboard shows
        a breach that outlives the data.  Call this once after the final
        record: each open alert is closed at ``now`` with the last
        observed metric value and an audited ``alert.close`` carrying
        ``final=True`` (the breach did not clear; the run ended).
        Returns the alerts that were force-closed.  Idempotent.
        """
        closed: list[Alert] = []
        for rule in self.rules:
            state = self._states[rule.name]
            alert = state.alert
            if alert is None:
                continue
            value = state.last_value if state.last_value is not None else alert.value
            alert.closed_at = now
            alert.close_value = value
            self._emit(
                events.ALERT_CLOSE, rule, value=value,
                opened_at=alert.opened_at, final=True,
            )
            state.alert = None
            state.breach_since = None
            closed.append(alert)
        return closed

    def _emit(self, kind: str, rule: SLORule, **detail) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                kind, f"slo:{rule.name}",
                rule=rule.name, metric=rule.metric, op=rule.op,
                threshold=rule.threshold, clear=rule.clear_threshold,
                **detail,
            )

    # -- replay (coverage auditing) ----------------------------------------

    @classmethod
    def replay(
        cls,
        records: "Sequence[TraceRecord]",
        rules: "Sequence[SLORule]",
        window: float = 10.0,
        half_life: float = 10.0,
        qos_max_staleness: float | None = None,
    ) -> "SLOMonitor":
        """Re-derive the alerts a live run *should* have raised.

        Feeds the records (alert events excluded) through a fresh registry
        and monitor with no tracer attached; the result's :attr:`alerts`
        is the expected alert sequence — the coverage contract the checker
        compares real ``alert.*`` events against.
        """
        registry = LiveRegistry(
            window=window, half_life=half_life,
            qos_max_staleness=qos_max_staleness,
        )
        monitor = cls(rules, registry)
        for record in records:
            if record.kind in events.ALERT_KINDS:
                continue
            registry.observe(record)
            monitor._fold(record.time)
        return monitor


def load_slo_rules(path: str) -> list[SLORule]:
    """Read SLO rules from a JSON file (a list of rule objects)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise SimulationError(
            f"SLO file {path!r} must contain a JSON list of rules"
        )
    return [SLORule.from_dict(item) for item in data]


def default_slo_rules() -> list[SLORule]:
    """The stock rule set the live dashboard ships with.

    One rule per failure mode the paper's IV model makes expensive:
    realized IV falling behind plan, tail synchronization latency, a shed
    spike, replica staleness and outage dwell.
    """
    return [
        SLORule(
            name="iv-realization-floor",
            metric="gauges.query.iv.realization",
            op="below", threshold=0.7, clear=0.85,
        ),
        SLORule(
            name="sl-p95-ceiling",
            metric="quantiles.query.sl.p95",
            op="above", threshold=20.0, clear=15.0,
        ),
        SLORule(
            name="shed-spike",
            metric="gauges.mqo.shed.ratio",
            op="above", threshold=0.25, clear=0.10,
        ),
        SLORule(
            name="staleness-breach",
            metric="quantiles.sync.staleness.p95",
            op="above", threshold=30.0, clear=20.0,
        ),
        SLORule(
            name="outage-dwell",
            metric="gauges.faults.outage_dwell",
            op="above", threshold=5.0, clear=0.0,
        ),
    ]
