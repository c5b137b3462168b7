"""Workload serialization (JSON round-trip).

Saving a workload — queries, arrival times, business values, discount
preferences, base work — makes experiment inputs shareable and replayable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.value import DiscountRates
from repro.errors import WorkloadError
from repro.workload.query import DSSQuery, Workload

__all__ = [
    "query_to_dict",
    "query_from_dict",
    "workload_to_dict",
    "workload_from_dict",
    "save_workload",
    "load_workload",
]

#: Format version written into every document.
FORMAT_VERSION = 1


def query_to_dict(query: DSSQuery) -> dict:
    """One query as a JSON-safe dict."""
    payload: dict = {
        "query_id": query.query_id,
        "name": query.name,
        "tables": list(query.tables),
        "business_value": query.business_value,
    }
    if query.rates is not None:
        payload["rates"] = {
            "computational": query.rates.computational,
            "synchronization": query.rates.synchronization,
        }
    if query.base_work is not None:
        payload["base_work"] = query.base_work
    return payload


def query_from_dict(payload: dict) -> DSSQuery:
    """Rebuild one query from :func:`query_to_dict` output."""
    try:
        rates = None
        if "rates" in payload:
            rates = DiscountRates(
                computational=payload["rates"]["computational"],
                synchronization=payload["rates"]["synchronization"],
            )
        if "logical_ref" in payload:
            # It names an engine definition nothing resolves; dropping it
            # would cost the query by row counts instead.
            raise WorkloadError(
                f"logical_ref {payload['logical_ref']!r} is no longer "
                f"resolved: save the query with its base_work"
            )
        return DSSQuery(
            query_id=int(payload["query_id"]),
            name=str(payload["name"]),
            tables=tuple(payload["tables"]),
            business_value=float(payload.get("business_value", 1.0)),
            rates=rates,
            base_work=(
                float(payload["base_work"])
                if "base_work" in payload
                else None
            ),
        )
    except KeyError as missing:
        raise WorkloadError(f"query document missing field {missing}")


def workload_to_dict(workload: Workload) -> dict:
    """A whole workload as a JSON-safe dict."""
    return {
        "format_version": FORMAT_VERSION,
        "queries": [
            {
                **query_to_dict(query),
                "arrival": workload.arrival_of(query.query_id),
            }
            for query in workload.queries
        ],
    }


def workload_from_dict(payload: dict) -> Workload:
    """Rebuild a workload from :func:`workload_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported workload format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    workload = Workload()
    for entry in payload.get("queries", []):
        query = query_from_dict(entry)
        workload.add(query, arrival=float(entry.get("arrival", 0.0)))
    return workload


def save_workload(workload: Workload, path: str | Path) -> None:
    """Write a workload to a JSON file."""
    Path(path).write_text(
        json.dumps(workload_to_dict(workload), indent=2) + "\n"
    )


def load_workload(path: str | Path) -> Workload:
    """Read a workload from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkloadError(f"cannot load workload from {path}: {exc}")
    return workload_from_dict(payload)
