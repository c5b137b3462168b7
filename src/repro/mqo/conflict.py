"""Conflict detection and workload formation (paper Section 3.2, step 1).

"For each query, we perform an query plan selection task as described
earlier and derive a range along the time axis that the query may run.  If
the ranges of more than two queries are overlapped, we group them into a
workload for the next step."

A query's *execution range* spans from its arrival to the completion of its
slowest candidate plan; queries whose ranges overlap form connected
components, each optimized as one workload.

Ranges use **half-open ``[start, end)`` semantics**: a range ends the
instant its slowest plan completes, and a query arriving at exactly that
instant cannot contend with it — the server is already free.  Two ranges
touching at a single point therefore do *not* conflict and stay in
separate workloads.

:class:`IncrementalConflictGroups` is the one group-formation path: an
interval structure the online scheduler (batch MQO included — it is one
online window) maintains across windows, admitting and retiring one range
at a time.  Admitting a range merges every cluster it overlaps; retiring
one re-sweeps only its own cluster (which may split).  :meth:`groups`
returns exactly what a from-scratch sweep line would on the same range
set — same groups, group order and member order — so per-window GA seeds
(which depend on group *index*) are the sweep's.  The sweep line is the
test oracle (``tests/mqo_batch_oracle.py``), against which
``tests/test_mqo_conflict_incremental.py`` property-tests the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from repro.errors import OptimizationError

__all__ = ["ExecutionRange", "IncrementalConflictGroups"]


@dataclass(slots=True)
class ExecutionRange:
    """The half-open time range ``[start, end)`` one query may occupy.

    Read-only by convention (not ``frozen``: one is built per arrival, and
    a frozen dataclass constructs through ``object.__setattr__`` per field).
    """

    query_id: int
    start: float
    end: float

    @property
    def sort_key(self) -> tuple[float, float, int]:
        """The sweep line's global ordering key."""
        return (self.start, self.end, self.query_id)


class _Cluster:
    """One connected component: a merged span plus its member ranges.

    ``members`` is kept sorted by the sweep key ``(start, end, query_id)``
    — within one component that is exactly the order the sweep line visits
    (and therefore emits) them in.
    """

    __slots__ = ("start", "end", "members")

    def __init__(self, members: list[ExecutionRange]) -> None:
        self.members = members
        self.start = members[0].start
        self.end = max(r.end for r in members)


class IncrementalConflictGroups:
    """Conflict groups maintained one admit/retire at a time.

    Positive-length member ranges live in disjoint clusters kept sorted by
    span start (two clusters may *touch* at an endpoint — half-open ranges
    that meet at one instant do not conflict).  A zero-length range
    ``[x, x)`` conflicts exactly with ranges strictly straddling ``x``
    (two ranges conflict when each starts before the other ends), so it
    never bridges, extends or
    splits a cluster; points are tracked separately and resolved only when
    :meth:`groups` materializes its answer — into the cluster whose span
    strictly contains the point (a cluster's coverage is gap-free, so
    strict containment is equivalent to the sweep's chaining rule), or
    into a singleton group otherwise.

    Complexity: :meth:`add` is ``O(log k + m)`` where ``k`` is the cluster
    count and ``m`` the membership of the clusters being merged;
    :meth:`remove` is ``O(log k + c)`` where ``c`` is the retired range's
    cluster size — against the sweep line's ``O(n log n)`` full recompute
    per window.
    """

    def __init__(self) -> None:
        self._ranges: dict[int, ExecutionRange] = {}
        self._clusters: list[_Cluster] = []
        self._starts: list[float] = []   # parallel: cluster span starts
        self._ends: list[float] = []     # parallel: cluster span ends
        self._points: dict[int, ExecutionRange] = {}  # zero-length ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._ranges

    def add(self, rng: ExecutionRange) -> None:
        """Admit one range, merging every cluster it overlaps."""
        if rng.query_id in self._ranges:
            raise OptimizationError(
                f"query {rng.query_id} already has an execution range"
            )
        if rng.end < rng.start:
            raise OptimizationError(
                f"execution range ends before it starts: {rng}"
            )
        self._ranges[rng.query_id] = rng
        if rng.start == rng.end:
            self._points[rng.query_id] = rng
            return
        # Clusters are disjoint and sorted, so both span arrays are sorted
        # and the clusters overlapping [start, end) form one contiguous
        # run: those whose end > rng.start and whose start < rng.end.
        lo = bisect_right(self._ends, rng.start)
        hi = bisect_left(self._starts, rng.end)
        if lo == hi:  # overlaps nothing: a fresh singleton cluster
            cluster = _Cluster([rng])
            self._clusters.insert(lo, cluster)
            self._starts.insert(lo, cluster.start)
            self._ends.insert(lo, cluster.end)
            return
        # Merge clusters[lo:hi] with the new range.  Their member lists
        # concatenate already sorted (each cluster's members start before
        # the next cluster's span does); the new range is insorted.
        members: list[ExecutionRange] = []
        for cluster in self._clusters[lo:hi]:
            members.extend(cluster.members)
        insort(members, rng, key=lambda r: (r.start, r.end, r.query_id))
        merged = _Cluster(members)
        self._clusters[lo:hi] = [merged]
        self._starts[lo:hi] = [merged.start]
        self._ends[lo:hi] = [merged.end]

    def remove(self, query_id: int) -> None:
        """Retire one range, re-sweeping (and possibly splitting) its cluster."""
        rng = self._ranges.pop(query_id, None)
        if rng is None:
            raise OptimizationError(
                f"query {query_id} has no execution range to retire"
            )
        if rng.start == rng.end:
            del self._points[query_id]
            return
        # The owning cluster is the one whose span starts latest at or
        # before rng.start (members start within their cluster's span, and
        # strictly before the next cluster's).
        index = bisect_right(self._starts, rng.start) - 1
        cluster = self._clusters[index]
        position = bisect_left(
            cluster.members, (rng.start, rng.end, rng.query_id),
            key=lambda r: (r.start, r.end, r.query_id),
        )
        del cluster.members[position]
        if not cluster.members:
            del self._clusters[index]
            del self._starts[index]
            del self._ends[index]
            return
        # Local sweep over the surviving members: the component may split.
        replacements: list[_Cluster] = []
        current: list[ExecutionRange] = []
        current_end = float("-inf")
        for member in cluster.members:
            if current and member.start < current_end:
                current.append(member)
                current_end = max(current_end, member.end)
            else:
                if current:
                    replacements.append(_Cluster(current))
                current = [member]
                current_end = member.end
        replacements.append(_Cluster(current))
        self._clusters[index : index + 1] = replacements
        self._starts[index : index + 1] = [c.start for c in replacements]
        self._ends[index : index + 1] = [c.end for c in replacements]

    def groups(self) -> list[list[int]]:
        """Current groups, bit-equal to the sweep line on the same ranges.

        Group order is the sweep's: by the first member's
        ``(start, end, query_id)`` key.  Zero-length points resolve here —
        captured by the cluster strictly containing them (they can never
        be a cluster's first member), singletons otherwise.
        """
        captured: dict[int, list[ExecutionRange]] = {}
        singles: list[ExecutionRange] = []
        for rng in self._points.values():
            index = bisect_right(self._starts, rng.start) - 1
            if (
                index >= 0
                and self._starts[index] < rng.start < self._ends[index]
            ):
                captured.setdefault(index, []).append(rng)
            else:
                singles.append(rng)
        parts: list[tuple[tuple[float, float, int], list[int]]] = []
        for index, cluster in enumerate(self._clusters):
            members = cluster.members
            points = captured.get(index)
            if points:
                members = sorted(
                    members + points, key=lambda r: r.sort_key
                )
            parts.append(
                (members[0].sort_key, [r.query_id for r in members])
            )
        parts.extend((rng.sort_key, [rng.query_id]) for rng in singles)
        parts.sort(key=lambda item: item[0])
        return [group for _, group in parts]
