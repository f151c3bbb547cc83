from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogmap import (
    CognitiveMap,
    NonFiniteInfluenceError,
    PathBudgetError,
    accumulate_full,
    accumulate_truncated,
    complete_map,
    damping,
    enumerate_simple_paths,
    enumerate_with_budget,
    general_influence,
    golden,
    influence_matrix,
    max_abs_weight,
    pair_influence,
    path_influence,
    reachability_closure,
    scale_map,
    two_edge_sign,
)
from conftest import cognitive_maps, random_map, verify_influence_golden, verify_report_golden

from oracles import oracle_influence_matrix, straight_line_full, straight_line_truncated

ALPHA_1 = 0.8646647167633873  # damping(1) = 1 - exp(-2)


class TestDamping:
    def test_zero(self):
        assert damping(0.0) == 0.0

    def test_one(self):
        assert damping(1.0) == pytest.approx(ALPHA_1, abs=1e-15)

    def test_large_argument_stays_below_one(self):
        assert damping(10.0) == pytest.approx(0.9999999979388464, abs=1e-15)
        assert damping(10.0) < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            damping(-0.1)

    @given(x=st.floats(0, 2), y=st.floats(0, 2))
    @example(x=1.9999999999999998, y=2.0)  # one ulp apart, equal outputs
    @settings(max_examples=60)
    def test_strictly_increasing_and_bounded_on_reachable_domain(self, x, y):
        # |z| < 2 mu keeps the recurrence's arguments inside [0, 2)
        assert 0.0 <= damping(x) < 1.0
        if x < y:
            # the slope is >= 0.036 on [0, 2], so a 1e-9 step moves the output
            # by far more than an ulp; a step of a few ulps in x may not
            assert damping(x) <= damping(y)
            if y - x >= 1e-9:
                assert damping(x) < damping(y)


class TestAccumulate:
    def test_two_unit_edges(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        assert accumulate_full(m, (0, 1, 3), 1.0) == pytest.approx(1 + ALPHA_1, abs=1e-12)

    def test_single_edge_is_exact(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert accumulate_full(m, (0, 1), 1.0) == 0.391

    def test_three_edge_chain_with_sign_flip(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        # runs 1, 1+a(1), then boosts into the -1 edge
        expected = -(1 + damping(1 + ALPHA_1))
        assert accumulate_full(m, (1, 3, 0, 2), 1.0) == pytest.approx(expected, abs=1e-12)
        assert accumulate_full(m, (1, 3, 0, 2), 1.0) == pytest.approx(-1.97599107, abs=1e-8)

    def test_truncated_skips_first_edge(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        assert accumulate_truncated(m, (0, 1, 3), 1.0) == 1.0
        assert accumulate_truncated(m, (1, 3, 0, 2), 1.0) == pytest.approx(
            -(1 + ALPHA_1), abs=1e-12
        )

    def test_truncated_single_edge_is_zero(self, fixture_maps):
        assert accumulate_truncated(fixture_maps["four_stable"], (0, 1), 1.0) == 0.0

    def test_bad_mu(self, fixture_maps):
        for mu in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                accumulate_full(fixture_maps["four_stable"], (0, 1), mu)

    def test_path_influence_partial(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        info = path_influence(m, (0, 1, 3), 1.0)
        assert info.partial == info.full - info.truncated == pytest.approx(ALPHA_1, abs=1e-12)


class TestPairInfluence:
    def test_two_route_pair(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        ps = enumerate_simple_paths(m, 0, 3)
        assert pair_influence(m, 0, 3, 1.0, ps) == pytest.approx(2 * ALPHA_1, abs=1e-12)

    def test_mixed_weights_pair(self, fixture_maps):
        m = fixture_maps["four_stable"]
        ps = enumerate_simple_paths(m, 0, 3)
        assert pair_influence(m, 0, 3, 1.0, ps) == pytest.approx(0.757454, abs=1e-6)

    def test_empty_path_set_gives_zero(self, fixture_maps):
        m = fixture_maps["four_heavy"]
        ps = enumerate_simple_paths(m, 0, 1)
        assert pair_influence(m, 0, 1, 9.0, ps) == 0.0


class TestInfluenceMatrixGolden:
    @pytest.mark.parametrize(
        "name",
        ["four_stable", "four_unstable", "four_heavy", "city_waste", "electricity", "sanitation"],
    )
    def test_fixture_reproduces_golden(self, name, fixture_maps):
        m = fixture_maps[name]
        Z = influence_matrix(m)
        notes = verify_influence_golden(m, golden(name), Z)
        for note in notes:
            print(note)

    def test_zero_map(self):
        assert not influence_matrix(CognitiveMap(np.zeros((3, 3)))).any()

    def test_budget_violation_names_pair(self):
        with pytest.raises(PathBudgetError) as excinfo:
            influence_matrix(complete_map(6), max_paths=10)
        assert (excinfo.value.source, excinfo.value.target) == (0, 1)

    def test_threads_do_not_change_bits(self, fixture_maps):
        m = fixture_maps["city_waste"]
        sequential = influence_matrix(m)
        threaded = influence_matrix(m, threads=4)
        assert np.array_equal(sequential, threaded)


def pairwise_matrix(m, max_len=None):
    """The influence matrix by the per-pair definition: enumerate, then sum."""
    mu = max_abs_weight(m)
    Z = np.zeros((m.n, m.n))
    if mu == 0.0:
        return Z
    for i in range(m.n):
        for j in range(m.n):
            if i != j:
                paths = enumerate_with_budget(m, i, j, max_len=max_len)
                Z[i, j] = pair_influence(m, i, j, mu, paths)
    return Z


def first_overflowing_pair(m, max_paths, max_len=None):
    """The first pair in row-major order with more than ``max_paths`` paths."""
    for i in range(m.n):
        for j in range(m.n):
            if i != j:
                try:
                    enumerate_with_budget(m, i, j, max_paths=max_paths, max_len=max_len)
                except PathBudgetError:
                    return i, j
    return None


class TestKernelAgainstReference:
    @given(
        m=cognitive_maps(max_n=7),
        max_len=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_pairwise_definition(self, m, max_len):
        Z = influence_matrix(m, max_len=max_len)
        assert Z.tobytes() == pairwise_matrix(m, max_len).tobytes()

    @pytest.mark.parametrize("name", ["four_stable", "city_waste", "sanitation_doubled"])
    def test_fixtures_bit_identical(self, name, fixture_maps):
        m = fixture_maps[name]
        assert influence_matrix(m).tobytes() == pairwise_matrix(m).tobytes()

    def test_budget_error_names_first_overflowing_pair(self):
        rng = np.random.default_rng(16)
        maps = [complete_map(n, 0.5) for n in (3, 4, 5, 6)]
        maps += [random_map(rng, int(rng.integers(3, 8)), density=0.6) for _ in range(30)]
        raised = 0
        for m in maps:
            for max_paths in (1, 2, 3, 5, 10):
                for max_len in (None, 2):
                    pair = first_overflowing_pair(m, max_paths, max_len)
                    if pair is None:
                        influence_matrix(m, max_paths=max_paths, max_len=max_len)
                        continue
                    with pytest.raises(PathBudgetError) as excinfo:
                        influence_matrix(m, max_paths=max_paths, max_len=max_len)
                    err = excinfo.value
                    assert (err.source, err.target) == pair
                    assert (err.found, err.max_paths) == (max_paths + 1, max_paths)
                    raised += 1
        assert raised > 50  # the maps do overflow, so the check is not vacuous

    def test_budget_error_for_earlier_target_found_later_in_the_walk(self):
        # from vertex 0 the walk reaches 2 twice, via (0, 1, 2) and (0, 2),
        # before its second path to 1, (0, 2, 1): with one path allowed, 2
        # overflows first in walk order but (0, 1) is first in row-major order
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = w[1, 2] = w[2, 1] = 1.0
        with pytest.raises(PathBudgetError) as excinfo:
            influence_matrix(CognitiveMap(w), max_paths=1)
        assert (excinfo.value.source, excinfo.value.target) == (0, 1)


class TestNonFinite:
    def test_overflowing_weights_name_the_first_pair(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1e308
        with pytest.raises(NonFiniteInfluenceError, match="vertex 1 on vertex 3") as excinfo:
            influence_matrix(CognitiveMap(w))
        assert excinfo.value.pair == (0, 2)
        assert excinfo.value.max_weight == 1e308
        assert "1e+308" in str(excinfo.value)

    def test_overflowing_row_sum_names_the_row(self):
        Z = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1e308, 1e308, 0.0]])
        with pytest.raises(NonFiniteInfluenceError, match="score of vertex 3") as excinfo:
            general_influence(Z)
        assert excinfo.value.row == 2

    def test_largest_finite_sum_is_scored(self):
        Z = np.array([[0.0, 8e307], [8e307, 0.0]])
        assert general_influence(Z).scores == (8e307, 8e307)


class TestGeneralInfluence:
    def test_scores_and_ranking(self, fixture_maps):
        report = general_influence(influence_matrix(fixture_maps["four_stable"]))
        gold = golden("four_stable")
        verify_report_golden(gold, report.scores, report.ranking)

    def test_heavy_map_table(self, fixture_maps):
        report = general_influence(influence_matrix(fixture_maps["four_heavy"]))
        verify_report_golden(golden("four_heavy"), report.scores, report.ranking)
        assert report.scores[0] == 0.0

    def test_zero_matrix_ranking_is_index_order(self):
        report = general_influence(np.zeros((4, 4)))
        assert report.scores == (0.0, 0.0, 0.0, 0.0)
        assert report.ranking == (1, 2, 3, 4)


class TestTwoEdgeSign:
    @pytest.mark.parametrize(
        "w1,w2,expected",
        [
            (0.5, 0.7, 1),    # two promotions promote
            (-0.5, -0.7, 1),  # suppressing a suppressor promotes
            (-0.5, 0.7, -1),  # suppressing a promoter suppresses
            (0.5, -0.7, -1),  # promoting a suppressor suppresses
        ],
    )
    def test_sign_table(self, w1, w2, expected):
        assert two_edge_sign(w1, w2) == expected

    def test_matches_actual_two_edge_partial(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w1, w2 = rng.uniform(-3, 3, size=2)
            if w1 == 0 or w2 == 0:
                continue
            w = np.zeros((3, 3))
            w[0, 1], w[1, 2] = w1, w2
            m = CognitiveMap(w)
            partial = path_influence(m, (0, 1, 2), max_abs_weight(m)).partial
            assert math.copysign(1, partial) == two_edge_sign(w1, w2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_edge_sign(0.0, 1.0)


class TestProperties:
    @given(m=cognitive_maps())
    @settings(max_examples=60, deadline=None)
    def test_matches_straight_line_oracle(self, m):
        Z = influence_matrix(m)
        expected = oracle_influence_matrix(m.weights)
        assert np.allclose(Z, expected, rtol=1e-12, atol=1e-12)

    @given(m=cognitive_maps())
    @settings(max_examples=50, deadline=None)
    def test_boundedness_per_path_and_per_pair(self, m):
        mu = max_abs_weight(m)
        if mu == 0.0:
            return
        Z = influence_matrix(m)
        for i in range(m.n):
            for j in range(m.n):
                if i == j:
                    continue
                ps = enumerate_simple_paths(m, i, j)
                for path in ps:
                    assert abs(accumulate_full(m, path, mu)) < 2 * mu
                    assert abs(accumulate_truncated(m, path, mu)) < 2 * mu
                if ps.count:
                    assert abs(Z[i, j]) < 2 * mu * ps.count

    def test_single_edge_identity_exact(self):
        # an edge into a sink can have no other path: influence equals weight
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 5
            m = random_map(rng, n, density=0.5)
            Z = None
            for j in range(n):
                if not m.weights[j].any():  # j is a sink
                    for i in range(n):
                        if m.weights[i, j] != 0.0:
                            extra = [
                                p
                                for p in enumerate_simple_paths(m, i, j)
                                if len(p) > 2
                            ]
                            if extra:
                                continue
                            Z = influence_matrix(m) if Z is None else Z
                            assert Z[i, j] == m.weights[i, j]

    def test_zero_iff_unreachable_on_random_maps(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = random_map(rng, rng.integers(2, 6), density=0.4)
            Z = influence_matrix(m)
            reach = reachability_closure(m)
            for i in range(m.n):
                for j in range(m.n):
                    if i == j:
                        continue
                    assert (Z[i, j] == 0.0) == (not reach[i, j])

    @pytest.mark.parametrize("eta", [0.01, 0.5, 2, 10, 100])
    def test_scale_equivariance(self, eta, fixture_maps):
        m = fixture_maps["sanitation"]
        base = influence_matrix(m)
        scaled = influence_matrix(scale_map(m, eta))
        assert np.allclose(scaled, eta * base, rtol=1e-9, atol=0)
        assert (
            general_influence(scaled).ranking == general_influence(base).ranking
        )

    @given(m=cognitive_maps(max_n=5), eta=st.sampled_from([0.125, 0.5, 2.0, 8.0, 3.7]))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance_random(self, m, eta):
        base = influence_matrix(m)
        scaled = influence_matrix(scale_map(m, eta))
        assert np.allclose(scaled, eta * base, rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize(
        "name", ["four_unstable", "four_heavy", "city_waste", "electricity", "sanitation_doubled"]
    )
    def test_total_on_unstable_maps(self, name, fixture_maps):
        # the whole point: a finite answer where impulse simulation blows up
        Z = influence_matrix(fixture_maps[name])
        assert np.all(np.isfinite(Z))

    @given(m=cognitive_maps(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_oracle_recurrences_agree_per_path(self, m):
        mu = max_abs_weight(m)
        if mu == 0.0:
            return
        for i in range(m.n):
            for j in range(m.n):
                if i == j:
                    continue
                for path in enumerate_simple_paths(m, i, j):
                    assert accumulate_full(m, path, mu) == pytest.approx(
                        straight_line_full(m.weights, path, mu), rel=1e-12, abs=1e-12
                    )
                    assert accumulate_truncated(m, path, mu) == pytest.approx(
                        straight_line_truncated(m.weights, path, mu), rel=1e-12, abs=1e-12
                    )
