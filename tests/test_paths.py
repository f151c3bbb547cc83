from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings

from cogmap import (
    CognitiveMap,
    PathBudgetError,
    complete_map,
    count_paths_complete,
    enumerate_simple_paths,
    enumerate_with_budget,
)
from cogmap.paths import _complete_paths
from conftest import cognitive_maps

from oracles import brute_force_paths


class TestEnumerate:
    def test_two_parallel_routes(self, fixture_maps):
        ps = enumerate_simple_paths(fixture_maps["four_unstable"], 0, 3)
        assert ps.paths == ((0, 1, 3), (0, 2, 3))

    def test_cycle_does_not_revisit_source(self, fixture_maps):
        # 1 -> 3 -> 4 -> 1 -> 2 would revisit vertex 1, so only the edge remains
        ps = enumerate_simple_paths(fixture_maps["four_unstable"], 0, 1)
        assert ps.paths == ((0, 1),)

    def test_no_outgoing_edges_means_no_paths(self, fixture_maps):
        for target in (1, 2, 3):
            assert enumerate_simple_paths(fixture_maps["four_heavy"], 0, target).count == 0

    def test_source_equals_target_rejected(self, fixture_maps):
        with pytest.raises(ValueError, match="differ"):
            enumerate_simple_paths(fixture_maps["four_stable"], 2, 2)

    def test_bad_index_rejected(self, fixture_maps):
        with pytest.raises(ValueError, match="target"):
            enumerate_simple_paths(fixture_maps["four_stable"], 0, 7)

    def test_edge_weights_helper(self, fixture_maps):
        m = fixture_maps["four_stable"]
        ps = enumerate_simple_paths(m, 0, 3)
        assert ps.edge_weights(m, (0, 1, 3)) == (0.391, 1.0)

    def test_leaves_no_garbage_cycle(self, fixture_maps):
        # a reference cycle would hold every path until a full collection,
        # so peak memory would grow with the number of pairs enumerated
        m = fixture_maps["sanitation"]
        gc.collect()
        gc.disable()
        try:
            enumerate_simple_paths(m, 0, 6)
            with pytest.raises(PathBudgetError):
                enumerate_with_budget(m, 0, 6, max_paths=1)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBudgets:
    def test_generous_budget_returns_everything(self, fixture_maps):
        ps = enumerate_with_budget(fixture_maps["four_unstable"], 0, 3, max_paths=10, max_len=10)
        assert ps.count == 2

    def test_count_budget_raises_with_partial_count(self):
        with pytest.raises(PathBudgetError) as excinfo:
            enumerate_with_budget(complete_map(8), 0, 1, max_paths=100)
        err = excinfo.value
        assert (err.source, err.target) == (0, 1)
        assert 100 < err.found <= count_paths_complete(8)

    def test_exact_budget_is_not_exceeded(self, fixture_maps):
        ps = enumerate_with_budget(fixture_maps["four_unstable"], 0, 3, max_paths=2)
        assert ps.count == 2

    def test_length_bound_keeps_direct_edges_only(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert enumerate_with_budget(m, 0, 1, max_len=1).paths == ((0, 1),)
        assert enumerate_with_budget(m, 0, 3, max_len=1).count == 0

    def test_bad_budgets(self, fixture_maps):
        m = fixture_maps["four_stable"]
        with pytest.raises(ValueError):
            enumerate_with_budget(m, 0, 1, max_paths=0)
        with pytest.raises(ValueError):
            enumerate_with_budget(m, 0, 1, max_len=0)


class TestCompleteGraphCounts:
    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 2), (4, 5), (5, 16), (6, 65), (7, 326), (8, 1957)]
    )
    def test_formula_matches_enumeration(self, n, expected):
        assert count_paths_complete(n) == expected
        assert enumerate_simple_paths(complete_map(n), 0, 1).count == expected

    @pytest.mark.parametrize("n", range(2, 12))
    def test_factorial_bound(self, n):
        assert count_paths_complete(n) < math.e * math.factorial(n - 2)

    def test_too_small(self):
        with pytest.raises(ValueError):
            count_paths_complete(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_length_bounded_count_matches_enumeration(self, n):
        m = complete_map(n)
        sums = []
        for max_len in range(1, n + 1):
            want = enumerate_with_budget(m, 0, 1, max_len=max_len).count
            assert _complete_paths(n, max_len) == want
            assert _complete_paths(n, max_len, cap=want) == want
            sums.append(want)
        # under a cap it stops at the first partial sum past it
        for cap, past in zip(sums, sums[1 : n - 1]):
            assert _complete_paths(n, n, cap=cap) == past

    def test_cap_stops_a_long_chain_early(self):
        # 1 + 1498 + 1498 * 1497 is the first partial sum past 10**6; the
        # full sum has over 4000 digits
        assert _complete_paths(1500, 1500, cap=10**6) == 1 + 1498 + 1498 * 1497


class TestAgainstOracle:
    @given(m=cognitive_maps(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, m):
        for source in range(m.n):
            for target in range(m.n):
                if source == target:
                    continue
                ours = enumerate_simple_paths(m, source, target).paths
                assert list(ours) == brute_force_paths(m.weights, source, target)

    @given(m=cognitive_maps())
    @settings(max_examples=60, deadline=None)
    def test_every_path_is_simple_and_on_edges(self, m):
        for source in range(m.n):
            for target in range(m.n):
                if source == target:
                    continue
                for path in enumerate_simple_paths(m, source, target):
                    assert path[0] == source and path[-1] == target
                    assert len(set(path)) == len(path) >= 2
                    assert all(m.weights[a, b] != 0.0 for a, b in zip(path, path[1:]))

    @given(m=cognitive_maps())
    @settings(max_examples=40, deadline=None)
    def test_deleting_an_edge_never_adds_paths(self, m):
        edges = np.argwhere(m.weights != 0.0)
        if edges.size == 0:
            return
        a, b = edges[0]
        pruned_w = m.weights.copy()
        pruned_w[a, b] = 0.0
        pruned = CognitiveMap(pruned_w)
        for source in range(m.n):
            for target in range(m.n):
                if source == target:
                    continue
                before = set(enumerate_simple_paths(m, source, target).paths)
                after = set(enumerate_simple_paths(pruned, source, target).paths)
                assert after <= before

    def test_deterministic_and_lexicographic(self, fixture_maps):
        m = fixture_maps["city_waste"]
        for source in range(m.n):
            for target in range(m.n):
                if source == target:
                    continue
                first = enumerate_simple_paths(m, source, target).paths
                second = enumerate_simple_paths(m, source, target).paths
                assert first == second == tuple(sorted(first))
