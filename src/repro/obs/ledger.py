"""The IV audit ledger — every reported IV, explainable and recomputable.

The paper's formula ``IV = BV × (1−λ_CL)^CL × (1−λ_SL)^SL`` compresses a
whole execution into two latencies.  An :class:`IVLedgerEntry` preserves
what the compression discards: the phase timestamps whose differences make
up CL (scheduled delay, remote phase, local queue wait, processing,
transfer) and the per-table-version provenance whose minimum realized
freshness decides SL.  The contract — asserted by
:class:`~repro.obs.checker.TraceChecker` and the property suite — is that
:meth:`IVLedgerEntry.recompute_iv` reproduces the reported IV
**bit-identically**, because it reapplies
:func:`repro.core.value.information_value` to the exact floats the
executor measured.

Entries serialize losslessly to JSON (floats round-trip through
``repr``-based encoding), so a ledger written to a JSONL trace can be
audited offline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.value import DiscountRates, information_value

__all__ = ["VersionProvenance", "IVLedgerEntry", "completion_ledger"]

#: Phase-conservation tolerance: the telescoping sum of float differences
#: may deviate from ``completed_at − submitted_at`` by a few ulps.
CONSERVATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VersionProvenance:
    """Where one table version's freshness actually came from.

    Attributes
    ----------
    table, kind:
        The table and which copy was read (``"base"`` or ``"replica"``).
    site:
        The base table's site (``None`` for replicas, which are local).
    planned_freshness:
        What the plan *promised* — the published-schedule freshness the
        router bet on.
    realized_freshness:
        What execution *delivered* — leg start for base tables, last
        applied synchronization for replicas.  Fresher than planned when a
        sync landed while the query queued; staler under sync faults.
    last_sync_at:
        For replicas, the timestamp of the synchronization (or initial
        snapshot) that defines ``realized_freshness``; ``None`` for base
        tables.
    """

    table: str
    kind: str
    site: int | None
    planned_freshness: float
    realized_freshness: float
    last_sync_at: float | None

    def to_dict(self) -> dict:
        """JSON-ready representation (``asdict`` without its deep copies)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "VersionProvenance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            table=data["table"],
            kind=data["kind"],
            site=data["site"],
            planned_freshness=data["planned_freshness"],
            realized_freshness=data["realized_freshness"],
            last_sync_at=data["last_sync_at"],
        )


@dataclass(frozen=True)
class IVLedgerEntry:
    """One query's complete IV decomposition.

    Timestamps delimit the execution phases (all in simulation minutes)::

        submitted_at ─ scheduled_delay ─ started_at ─ remote_phase ─
        remote_done_at ─ queue_wait ─ local_granted_at ─ processing ─
        local_done_at ─ transfer ─ completed_at

    For failed queries the local-phase timestamps all collapse onto
    ``completed_at`` and only the identity/IV fields are meaningful.
    """

    query: str
    query_id: int
    business_value: float
    lambda_cl: float
    lambda_sl: float
    submitted_at: float
    started_at: float
    remote_done_at: float
    local_granted_at: float
    local_done_at: float
    completed_at: float
    data_timestamp: float
    queue_wait: float
    remote_wait: float
    retries: int
    failovers: int
    degraded: bool
    failed: bool
    reported_iv: float
    versions: tuple[VersionProvenance, ...]

    # -- CL decomposition --------------------------------------------------

    @property
    def computational_latency(self) -> float:
        """Realized CL, exactly as the outcome reported it."""
        return self.completed_at - self.submitted_at

    @property
    def synchronization_latency(self) -> float:
        """Realized SL, exactly as the outcome reported it."""
        return max(0.0, self.completed_at - self.data_timestamp)

    @property
    def scheduled_delay(self) -> float:
        """Minutes spent waiting for the plan's start time (delayed execution)."""
        return self.started_at - self.submitted_at

    @property
    def remote_phase(self) -> float:
        """Minutes from execution start until every remote leg settled."""
        return self.remote_done_at - self.started_at

    @property
    def processing(self) -> float:
        """Minutes of local assembly at the federation server."""
        return self.local_done_at - self.local_granted_at

    @property
    def transfer(self) -> float:
        """Minutes shipping the result to the user."""
        return self.completed_at - self.local_done_at

    @property
    def phase_sum(self) -> float:
        """Sum of the five phases — conserves CL up to float telescoping."""
        return (
            self.scheduled_delay
            + self.remote_phase
            + self.queue_wait
            + self.processing
            + self.transfer
        )

    # -- SL provenance ----------------------------------------------------------

    @property
    def stalest(self) -> VersionProvenance | None:
        """The version whose realized freshness decided SL."""
        if not self.versions:
            return None
        return min(self.versions, key=lambda version: version.realized_freshness)

    # -- the audit ---------------------------------------------------------

    @property
    def rates(self) -> DiscountRates:
        """The discount rates the plan was valued under."""
        return DiscountRates(self.lambda_cl, self.lambda_sl)

    def recompute_iv(self) -> float:
        """Reapply the paper's formula to the ledger's own numbers.

        Bit-identical to :attr:`reported_iv` by construction: same floats,
        same :func:`~repro.core.value.information_value`.
        """
        if self.failed:
            return 0.0
        return information_value(
            self.business_value,
            self.computational_latency,
            self.synchronization_latency,
            self.rates,
        )

    def explain(self) -> str:
        """Multi-line human-readable audit of this entry."""
        lines = [
            f"{self.query} (id={self.query_id}): "
            f"IV={self.reported_iv!r} (recomputed {self.recompute_iv()!r})",
            f"  CL={self.computational_latency:.6f} = "
            f"delay {self.scheduled_delay:.6f} + remote {self.remote_phase:.6f}"
            f" + queue {self.queue_wait:.6f} + processing {self.processing:.6f}"
            f" + transfer {self.transfer:.6f}",
            f"  SL={self.synchronization_latency:.6f} "
            f"(data as of {self.data_timestamp:.6f})",
        ]
        stalest = self.stalest
        for version in self.versions:
            mark = "  <- stalest" if version is stalest else ""
            sync = (
                f" last_sync={version.last_sync_at:.6f}"
                if version.last_sync_at is not None
                else ""
            )
            lines.append(
                f"    {version.table}[{version.kind}] "
                f"planned={version.planned_freshness:.6f} "
                f"realized={version.realized_freshness:.6f}{sync}{mark}"
            )
        if self.failed:
            lines.append("  FAILED (no result delivered, IV 0)")
        elif self.degraded:
            lines.append(
                f"  degraded: retries={self.retries} failovers={self.failovers}"
            )
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (lossless float round-trip)."""
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data["versions"] = [version.to_dict() for version in self.versions]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "IVLedgerEntry":
        """Inverse of :meth:`to_dict`."""
        fields = dict(data)
        fields["versions"] = tuple(
            VersionProvenance.from_dict(version) for version in data["versions"]
        )
        return cls(**fields)


def completion_ledger(
    query_name: str,
    query_id: int,
    business_value: float,
    rates: DiscountRates,
    submitted_at: float,
    begin: float,
    completed_at: float,
    data_timestamp: float,
) -> IVLedgerEntry:
    """The online serving path's ledger entry for one completion.

    Every driver of an online session — the live
    :class:`~repro.serve.service.QueryService`, the durable journal
    replay, the crash/resume harness and the traced scale shards — gets
    its entries from the one caller,
    :meth:`~repro.mqo.online.OnlineSession.completion_ledger`, so a
    recovered run's ledger is **bit-identical** to the live run's: same
    floats, same :func:`~repro.core.value.information_value` call, same
    field layout.
    The completion instant is the event's pop time (>= the analytic
    completion when dispatch ran late), matching the COMPLETE trace event.
    """
    started_at = max(begin, submitted_at)
    cl = completed_at - submitted_at
    sl = max(0.0, completed_at - data_timestamp)
    iv = information_value(business_value, cl, sl, rates)
    return IVLedgerEntry(
        query=query_name,
        query_id=query_id,
        business_value=business_value,
        lambda_cl=rates.computational,
        lambda_sl=rates.synchronization,
        submitted_at=submitted_at,
        started_at=started_at,
        remote_done_at=started_at,
        local_granted_at=started_at,
        local_done_at=completed_at,
        completed_at=completed_at,
        data_timestamp=data_timestamp,
        queue_wait=0.0,
        remote_wait=0.0,
        retries=0,
        failovers=0,
        degraded=False,
        failed=False,
        reported_iv=iv,
        versions=(),
    )
