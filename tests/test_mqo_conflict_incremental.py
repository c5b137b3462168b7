"""Property tests: incremental conflict groups == sweep line == oracle.

The online scheduler's :class:`IncrementalConflictGroups` must return, on
every window, *exactly* what ``conflict_groups`` (the sweep line, kept in
``tests/mqo_batch_oracle.py`` as the oracle) returns over the same range
set — same groups, same group order, same member order — because the
per-window GA seeds depend on group index.
This file checks that equivalence three ways:

* against the sweep line itself, under random interleavings of admits
  and retirements (checked after *every* mutation, not just at the end);
* against a brute-force union-find oracle that knows nothing about
  sweeping — connected components of the pairwise
  :meth:`ExecutionRange.overlaps` graph;
* on the adversarial boundary cases the half-open semantics create:
  ranges that touch exactly, duplicated endpoints, and zero-length
  ranges sitting inside other clusters' spans.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.mqo.conflict import ExecutionRange, IncrementalConflictGroups

from tests.mqo_batch_oracle import conflict_groups, ranges_overlap

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Endpoints drawn from a coarse grid so exact touches (end == start) and
# duplicate endpoints are common, not measure-zero accidents.
_grid = st.integers(min_value=0, max_value=24).map(lambda tick: tick * 0.5)


@st.composite
def range_sets(draw, max_size: int = 24) -> list[ExecutionRange]:
    """Distinct-id range sets over the grid, zero-length included."""
    endpoints = draw(
        st.lists(st.tuples(_grid, _grid), min_size=1, max_size=max_size)
    )
    ranges = []
    for qid, (a, b) in enumerate(endpoints, start=1):
        start, end = min(a, b), max(a, b)
        ranges.append(ExecutionRange(qid, start, end))
    return ranges


def union_find_oracle(ranges: list[ExecutionRange]) -> list[list[int]]:
    """Connected components of the pairwise overlap graph, sweep-ordered.

    Quadratic and sweep-free: merges every overlapping pair via
    union-find, then orders members and groups the way the sweep line
    emits them — members by ``(start, end, query_id)``, groups by their
    first member's key.
    """
    parent = {rng.query_id: rng.query_id for rng in ranges}

    def find(qid: int) -> int:
        while parent[qid] != qid:
            parent[qid] = parent[parent[qid]]
            qid = parent[qid]
        return qid

    for left in ranges:
        for right in ranges:
            if left.query_id < right.query_id and ranges_overlap(left, right):
                parent[find(left.query_id)] = find(right.query_id)
    components: dict[int, list[ExecutionRange]] = {}
    for rng in ranges:
        components.setdefault(find(rng.query_id), []).append(rng)
    groups = []
    for members in components.values():
        members.sort(key=lambda r: r.sort_key)
        groups.append(members)
    groups.sort(key=lambda members: members[0].sort_key)
    return [[rng.query_id for rng in members] for members in groups]


class TestAgainstOracles:
    @SETTINGS
    @given(ranges=range_sets())
    def test_sweep_line_matches_union_find_oracle(self, ranges):
        assert conflict_groups(ranges) == union_find_oracle(ranges)

    @SETTINGS
    @given(ranges=range_sets(), data=st.data())
    def test_incremental_matches_sweep_after_every_mutation(
        self, ranges, data
    ):
        # Admit in a drawn order; between admits, sometimes retire a
        # drawn present member.  The structure must agree with a
        # from-scratch sweep over the live set at every step.
        order = data.draw(st.permutations(ranges))
        index = IncrementalConflictGroups()
        live: dict[int, ExecutionRange] = {}
        for rng in order:
            index.add(rng)
            live[rng.query_id] = rng
            assert index.groups() == conflict_groups(list(live.values()))
            if len(live) > 1 and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(live)))
                index.remove(victim)
                del live[victim]
                assert index.groups() == conflict_groups(list(live.values()))
        assert len(index) == len(live)

    @SETTINGS
    @given(ranges=range_sets())
    def test_drain_to_empty_then_readmit(self, ranges):
        # Retire everything (dispatch order = admit order), then admit
        # everything again: the structure must come back bit-equal.
        index = IncrementalConflictGroups()
        for rng in ranges:
            index.add(rng)
        expected = conflict_groups(ranges)
        assert index.groups() == expected
        for rng in ranges:
            index.remove(rng.query_id)
        assert index.groups() == []
        assert len(index) == 0
        for rng in reversed(ranges):
            index.add(rng)
        assert index.groups() == expected


class TestBoundaries:
    def test_exact_touch_stays_separate(self):
        # Half-open: [0,5) and [5,10) never conflict, in either admit order.
        for first, second in (
            (ExecutionRange(1, 0.0, 5.0), ExecutionRange(2, 5.0, 10.0)),
            (ExecutionRange(2, 5.0, 10.0), ExecutionRange(1, 0.0, 5.0)),
        ):
            index = IncrementalConflictGroups()
            index.add(first)
            index.add(second)
            assert index.groups() == [[1], [2]]

    def test_bridging_range_merges_touching_clusters(self):
        index = IncrementalConflictGroups()
        index.add(ExecutionRange(1, 0.0, 5.0))
        index.add(ExecutionRange(2, 5.0, 10.0))
        index.add(ExecutionRange(3, 4.5, 5.5))  # overlaps both
        assert index.groups() == [[1, 3, 2]]

    def test_removal_splits_a_bridged_cluster(self):
        index = IncrementalConflictGroups()
        index.add(ExecutionRange(1, 0.0, 2.0))
        index.add(ExecutionRange(2, 1.0, 3.0))
        index.add(ExecutionRange(3, 2.5, 4.0))
        assert index.groups() == [[1, 2, 3]]
        index.remove(2)
        assert index.groups() == [[1], [3]]

    def test_zero_length_inside_a_span_joins_the_component(self):
        # [3,3) conflicts with the [0,10) range strictly straddling it —
        # and leaves the component once every straddler is retired.
        index = IncrementalConflictGroups()
        index.add(ExecutionRange(1, 0.0, 10.0))
        index.add(ExecutionRange(2, 3.0, 3.0))
        index.add(ExecutionRange(3, 9.0, 12.0))
        assert index.groups() == conflict_groups(
            [
                ExecutionRange(1, 0.0, 10.0),
                ExecutionRange(2, 3.0, 3.0),
                ExecutionRange(3, 9.0, 12.0),
            ]
        ) == [[1, 2, 3]]
        index.remove(1)
        assert index.groups() == [[2], [3]]
        index.remove(3)
        assert index.groups() == [[2]]

    def test_zero_length_matches_sweep_at_cluster_edges(self):
        ranges = [
            ExecutionRange(1, 2.0, 2.0),  # at a cluster's left edge
            ExecutionRange(2, 2.0, 6.0),
            ExecutionRange(3, 6.0, 6.0),  # at its right edge
        ]
        index = IncrementalConflictGroups()
        for rng in ranges:
            index.add(rng)
        assert index.groups() == conflict_groups(ranges) == [[1], [2], [3]]

    def test_duplicate_endpoints_order_by_query_id(self):
        ranges = [
            ExecutionRange(5, 1.0, 4.0),
            ExecutionRange(2, 1.0, 4.0),
            ExecutionRange(9, 1.0, 4.0),
        ]
        index = IncrementalConflictGroups()
        for rng in ranges:
            index.add(rng)
        assert index.groups() == conflict_groups(ranges) == [[2, 5, 9]]


class TestContracts:
    def test_double_admit_rejected(self):
        index = IncrementalConflictGroups()
        index.add(ExecutionRange(1, 0.0, 1.0))
        with pytest.raises(OptimizationError):
            index.add(ExecutionRange(1, 2.0, 3.0))

    def test_retire_unknown_rejected(self):
        with pytest.raises(OptimizationError):
            IncrementalConflictGroups().remove(7)

    def test_inverted_range_rejected(self):
        with pytest.raises(OptimizationError):
            IncrementalConflictGroups().add(ExecutionRange(1, 3.0, 2.0))

    def test_membership_protocol(self):
        index = IncrementalConflictGroups()
        index.add(ExecutionRange(4, 0.0, 1.0))
        assert 4 in index
        assert 5 not in index
        assert len(index) == 1
