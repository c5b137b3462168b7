"""Terminal dashboard and HTML report for live telemetry runs.

Pure renderers: they take the JSON-ready artifacts a live run produced —
registry snapshots (:meth:`repro.obs.live.LiveRegistry.snapshot`), the
SLO monitor's alert log, optionally a wall-clock profile table — and
return text/HTML.  No simulation state is touched, so the same functions
render a finished run or a mid-run snapshot equally well.
"""

from __future__ import annotations

import html
import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import Alert

__all__ = [
    "render_dashboard",
    "render_alert_log",
    "render_fleet_dashboard",
    "live_report_html",
    "fleet_report_html",
]


def _rule(width: int = 64) -> str:
    return "-" * width


def _section(title: str, rows: dict[str, float]) -> list[str]:
    lines = [title, _rule()]
    for key in sorted(rows):
        value = rows[key]
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"  {key:<40} {rendered:>18}")
    return lines


#: Per-table sync gauge keys rendered as dashboard columns, in order.
_TABLE_COLUMNS = (
    ("sync.table.staleness", "staleness"),
    ("sync.table.divergence", "divergence"),
    ("sync.table.update_rate", "rate/min"),
    ("sync.table.syncs", "syncs"),
)


def _table_sync_section(tables: dict[str, dict[str, float]]) -> list[str]:
    """The per-table replication block (one row per table)."""
    header = f"  {'table':<16}" + "".join(
        f" {label:>12}" for _, label in _TABLE_COLUMNS
    )
    lines = ["replica sync (per table)", _rule(), header]
    for name in sorted(tables):
        gauges = tables[name]
        lines.append(
            f"  {name:<16}"
            + "".join(
                f" {gauges.get(key, 0.0):>12.4f}" for key, _ in _TABLE_COLUMNS
            )
        )
    return lines


def render_dashboard(
    snapshot: dict,
    alerts: "list[Alert] | None" = None,
    profile_table: str | None = None,
) -> str:
    """One live snapshot as an aligned terminal dashboard.

    Sections mirror the snapshot layout (gauges, rates, quantiles,
    counters, per-table sync state), followed by the alert log and, when
    provided, the wall-clock attribution table.
    """
    lines: list[str] = [
        f"live dashboard @ t={snapshot.get('time', 0.0):.2f} min",
        "",
    ]
    for title, key in (
        ("gauges", "gauges"),
        ("rates (per min)", "rates"),
        ("quantiles", "quantiles"),
        ("counters", "counters"),
    ):
        table = snapshot.get(key) or {}
        if table:
            lines.extend(_section(title, table))
            lines.append("")
    tables = snapshot.get("tables") or {}
    if tables:
        lines.extend(_table_sync_section(tables))
        lines.append("")
    if alerts is not None:
        lines.append(render_alert_log(alerts))
        lines.append("")
    if profile_table:
        lines.extend(["wall-clock profile", _rule(), profile_table])
    return "\n".join(lines).rstrip() + "\n"


#: Shard-panel summary keys rendered as columns, in order.
_PANEL_COLUMNS = (
    "queries", "dispatched", "shed", "deferred",
    "records", "dropped_events", "ledger_entries",
)


def render_fleet_dashboard(snapshot: dict, title: str = "fleet") -> str:
    """A :meth:`~repro.obs.fleet.FleetCollector.snapshot` as terminal text.

    One summary row per shard (scheduler totals, trace coverage, dropped
    events), the fleet's bit-exact totals, then the fleet registry's
    sections when the caller added one under ``"registry"``
    (rates/quantiles/counters plus the per-table sync block).
    """
    shards = snapshot.get("shards") or []
    fleet = snapshot.get("fleet") or {}
    lines: list[str] = [
        f"fleet dashboard: {title} "
        f"({fleet.get('shards', len(shards))} shards)",
        "",
        "shard panels",
        _rule(),
        f"  {'shard':<8}" + "".join(
            f" {column:>14}" for column in _PANEL_COLUMNS
        ) + f" {'total_iv':>16}",
    ]
    for panel in shards:
        lines.append(
            f"  {panel.get('shard', '?'):<8}"
            + "".join(
                f" {panel.get(column, 0):>14}" for column in _PANEL_COLUMNS
            )
            + f" {panel.get('ledger_iv', 0.0):>16.4f}"
        )
    lines.append("")
    fleet_rows = {
        key: value
        for key, value in fleet.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    lines.extend(_section("fleet totals", fleet_rows))
    lines.append("")
    registry = snapshot.get("registry")
    if registry:
        lines.extend(_section(
            "merged rates (per min)", registry.get("rates") or {}
        ))
        lines.append("")
        lines.extend(_section(
            "merged quantiles", registry.get("quantiles") or {}
        ))
        lines.append("")
        lines.extend(_section("merged counters", registry.get("counters") or {}))
        lines.append("")
        tables = registry.get("tables") or {}
        if tables:
            lines.extend(_table_sync_section(tables))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_alert_log(alerts: "list[Alert]") -> str:
    """The alert history as one line per breach window."""
    if not alerts:
        return "alerts\n" + _rule() + "\n  (none fired)"
    lines = ["alerts", _rule()]
    for alert in alerts:
        if alert.closed_at is None:
            span = f"opened {alert.opened_at:8.2f}   still open"
        else:
            span = (
                f"opened {alert.opened_at:8.2f}   closed {alert.closed_at:8.2f}"
            )
        lines.append(f"  {alert.rule:<24} {span}   value {alert.value:.4f}")
    return "\n".join(lines)


def _html_table(headers: list[str], rows: list[list[str]]) -> str:
    head = "".join(f"<th>{html.escape(cell)}</th>" for cell in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def live_report_html(
    snapshots: list[dict],
    alerts: "list[Alert]",
    profile: dict[str, dict[str, float]] | None = None,
    metrics: dict | None = None,
    title: str = "Live telemetry report",
) -> str:
    """A self-contained HTML report of one live run.

    ``snapshots`` is the sampled snapshot time series (last = final
    state), ``profile`` a wall-clock attribution table
    (:meth:`~repro.obs.profile.WallProfiler.attribution`), ``metrics``
    the post-hoc registry snapshot for cross-checking.  Everything is
    inlined — no external assets — so the file can be archived with a CI
    run.
    """
    final = snapshots[-1] if snapshots else {}
    parts: list[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font-family:monospace;margin:2em;background:#fafafa}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}",
        "th{background:#eee}td:first-child,th:first-child{text-align:left}",
        ".open{color:#a00;font-weight:bold}.closed{color:#060}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>final sim time t={final.get('time', 0.0):.2f} min, "
        f"{len(snapshots)} sampled snapshots, {len(alerts)} alerts</p>",
    ]

    parts.append("<h2>Alerts</h2>")
    if alerts:
        parts.append(_html_table(
            ["rule", "opened", "closed", "open value", "close value"],
            [
                [
                    alert.rule,
                    f"{alert.opened_at:.2f}",
                    "open" if alert.closed_at is None
                    else f"{alert.closed_at:.2f}",
                    f"{alert.value:.4f}",
                    "" if alert.close_value is None
                    else f"{alert.close_value:.4f}",
                ]
                for alert in alerts
            ],
        ))
    else:
        parts.append("<p>(none fired)</p>")

    for section in ("gauges", "rates", "quantiles", "counters"):
        table = final.get(section) or {}
        if not table:
            continue
        parts.append(f"<h2>Final {section}</h2>")
        parts.append(_html_table(
            ["metric", "value"],
            [[key, f"{table[key]:.4f}"] for key in sorted(table)],
        ))

    # Sampled time series: one row per snapshot, gauges as columns.
    gauge_keys = sorted({
        key for snapshot in snapshots
        for key in (snapshot.get("gauges") or {})
    })
    if snapshots and gauge_keys:
        parts.append("<h2>Sampled gauges over sim time</h2>")
        parts.append(_html_table(
            ["t (min)", *gauge_keys],
            [
                [f"{snapshot.get('time', 0.0):.2f}"] + [
                    f"{(snapshot.get('gauges') or {}).get(key, float('nan')):.4f}"
                    for key in gauge_keys
                ]
                for snapshot in snapshots
            ],
        ))

    if profile:
        parts.append("<h2>Wall-clock profile</h2>")
        parts.append(_html_table(
            ["phase", "calls", "total (s)", "self (s)", "mean (ms)"],
            [
                [
                    name,
                    f"{row['calls']:.0f}",
                    f"{row['total_s']:.4f}",
                    f"{row['self_s']:.4f}",
                    f"{row['mean_ms']:.3f}",
                ]
                for name, row in sorted(
                    profile.items(), key=lambda item: -item[1]["self_s"]
                )
            ],
        ))

    if metrics is not None:
        parts.append("<h2>Post-hoc metrics registry</h2>")
        parts.append(
            "<pre>" + html.escape(json.dumps(metrics, indent=2, sort_keys=True))
            + "</pre>"
        )

    parts.append("</body></html>")
    return "\n".join(parts)


def fleet_report_html(snapshot: dict, title: str = "Fleet telemetry report") -> str:
    """A self-contained HTML report of one fleet collection.

    ``snapshot`` is :meth:`~repro.obs.fleet.FleetCollector.snapshot`:
    per-shard panels render as one table row each, the fleet totals and
    (when the caller added one under ``"registry"``) the fleet registry —
    including the per-table sync block — as their own sections.  No external assets, same archival
    contract as :func:`live_report_html`.
    """
    shards = snapshot.get("shards") or []
    fleet = snapshot.get("fleet") or {}
    parts: list[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font-family:monospace;margin:2em;background:#fafafa}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}",
        "th{background:#eee}td:first-child,th:first-child{text-align:left}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>{fleet.get('shards', len(shards))} shards, "
        f"{fleet.get('records', 0)} trace records, "
        f"{fleet.get('dropped_events', 0)} dropped events</p>",
        "<h2>Shard panels</h2>",
        _html_table(
            ["shard", *_PANEL_COLUMNS, "ledger_iv"],
            [
                [str(panel.get("shard", "?"))]
                + [str(panel.get(column, 0)) for column in _PANEL_COLUMNS]
                + [f"{panel.get('ledger_iv', 0.0):.4f}"]
                for panel in shards
            ],
        ),
        "<h2>Fleet totals</h2>",
        _html_table(
            ["metric", "value"],
            [
                [key, f"{value:.4f}" if isinstance(value, float) else str(value)]
                for key, value in sorted(fleet.items())
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ],
        ),
    ]
    registry = snapshot.get("registry")
    if registry:
        for section in ("gauges", "rates", "quantiles", "counters"):
            table = registry.get(section) or {}
            if not table:
                continue
            parts.append(f"<h2>Merged {section}</h2>")
            parts.append(_html_table(
                ["metric", "value"],
                [[key, f"{table[key]:.4f}"] for key in sorted(table)],
            ))
        tables = registry.get("tables") or {}
        if tables:
            parts.append("<h2>Replica sync (per table)</h2>")
            parts.append(_html_table(
                ["table", *(label for _, label in _TABLE_COLUMNS)],
                [
                    [name] + [
                        f"{tables[name].get(key, 0.0):.4f}"
                        for key, _ in _TABLE_COLUMNS
                    ]
                    for name in sorted(tables)
                ],
            ))
    parts.append("</body></html>")
    return "\n".join(parts)
