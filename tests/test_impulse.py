from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogmap import (
    CognitiveMap,
    ImpulseDivergenceError,
    MethodNotApplicableError,
    characteristic_constants,
    eigenvalues,
    golden,
    impulse_general_influence,
    scale_map,
    simulate,
    stability_check,
)
from cogmap.impulse import _all_distinct
from conftest import ALL_FIXTURES, STABLE_FIXTURES, UNSTABLE_FIXTURES, cognitive_maps, random_map

from oracles import neumann_cumulative_change


def unit_impulse(n: int, at: int) -> np.ndarray:
    p0 = np.zeros(n)
    p0[at] = 1.0
    return p0


class TestSimulate:
    def test_stable_map_converges_like_the_reference_figure(self, fixture_maps):
        m = fixture_maps["four_stable"]
        trace = simulate(m, unit_impulse(4, 0), eps=1e-6, max_steps=200)
        assert trace.converged
        assert trace.steps_to_converge == 61

    def test_impulse_is_difference_of_values(self, fixture_maps):
        m = fixture_maps["sanitation"]
        trace = simulate(m, unit_impulse(7, 2), max_steps=50)
        diffs = trace.values[1:] - trace.values[:-1]
        assert np.array_equal(trace.impulses[1:], diffs)
        assert np.array_equal(trace.impulses[0], unit_impulse(7, 2))

    def test_zero_map_converges_immediately(self):
        m = CognitiveMap(np.zeros((3, 3)))
        trace = simulate(m, unit_impulse(3, 1))
        assert trace.converged
        assert trace.steps_to_converge == 1
        assert not trace.values[-1].any()

    def test_unstable_map_grows_without_bound(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        trace = simulate(m, unit_impulse(4, 0), max_steps=200)
        assert not trace.converged
        assert np.max(np.abs(trace.impulses[-1])) > 1e6

    def test_overflow_raises_typed_error_with_step(self, fixture_maps):
        m = fixture_maps["four_heavy"]
        with pytest.raises(ImpulseDivergenceError) as excinfo:
            simulate(m, unit_impulse(4, 1), max_steps=10_000)
        assert excinfo.value.step == 432
        assert excinfo.value.source is None

    def test_trace_does_not_alias_the_callers_impulse(self, fixture_maps):
        m = fixture_maps["four_stable"]
        p0 = unit_impulse(4, 0)
        trace = simulate(m, p0, max_steps=100)
        p0[:] = 7.0
        assert np.array_equal(trace.impulses[0], unit_impulse(4, 0))

    def test_peak_memory_stays_below_twice_the_trace(self):
        # a unit impulse circles a 20-cycle for all 5 000 steps; a per-step
        # (1, n) block takes more memory than the row it holds, so blocks of
        # both values and impulses held next to the result would pass 2x
        n = 20
        w = np.zeros((n, n))
        w[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        tracemalloc.start()
        try:
            trace = simulate(CognitiveMap(w), unit_impulse(n, 0), max_steps=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps == 5000 and not trace.converged
        assert peak < 2 * (trace.values.nbytes + trace.impulses.nbytes)

    def test_argument_validation(self, fixture_maps):
        m = fixture_maps["four_stable"]
        with pytest.raises(ValueError):
            simulate(m, unit_impulse(4, 0), max_steps=0)
        with pytest.raises(ValueError):
            simulate(m, unit_impulse(4, 0), eps=0.0)
        with pytest.raises(ValueError):
            simulate(m, np.zeros(3))

    def test_initial_values_shift_only(self, fixture_maps):
        m = fixture_maps["four_stable"]
        base = simulate(m, unit_impulse(4, 0), max_steps=100)
        shifted = simulate(m, unit_impulse(4, 0), v0=np.ones(4), max_steps=100)
        assert shifted.steps_to_converge == base.steps_to_converge
        assert np.allclose(shifted.values[-1], base.values[-1] + 1.0, atol=1e-12)


class TestCharacteristicConstants:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_magnitudes_match_golden(self, name, fixture_maps):
        eigs = characteristic_constants(fixture_maps[name])
        got = sorted(np.abs(eigs), reverse=True)
        want = sorted(golden(name)["eigenvalue_magnitudes"], reverse=True)
        assert got == pytest.approx(want, abs=0.01)

    def test_zero_eigenvalues_dropped(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert len(characteristic_constants(m)) == 3
        assert len(eigenvalues(m.weights)) == 4

    def test_stable_map_eigenvalue_values(self, fixture_maps):
        # one real at 0.8 plus the conjugate pair 0.4 * (-1 +- i sqrt(3))
        eigs = sorted(characteristic_constants(fixture_maps["four_stable"]), key=lambda e: e.imag)
        assert eigs[1] == pytest.approx(0.8, abs=1e-9)
        assert eigs[0] == pytest.approx(0.4 * complex(-1, -np.sqrt(3)), abs=1e-9)
        assert eigs[2] == pytest.approx(0.4 * complex(-1, np.sqrt(3)), abs=1e-9)

    def test_against_reference_solver(self, fixture_maps):
        for m in fixture_maps.values():
            ref = np.linalg.eigvals(m.weights)
            ref = sorted(np.abs(ref[np.abs(ref) > 1e-9]), reverse=True)
            got = sorted(np.abs(characteristic_constants(m)), reverse=True)
            assert got == pytest.approx(ref, abs=1e-9)


class TestStabilityCheck:
    @pytest.mark.parametrize("name", STABLE_FIXTURES)
    def test_stable_fixtures(self, name, fixture_maps):
        verdict = stability_check(fixture_maps[name])
        assert verdict.stable
        assert verdict.all_distinct and verdict.all_within_unit

    @pytest.mark.parametrize("name", UNSTABLE_FIXTURES)
    def test_unstable_fixtures(self, name, fixture_maps):
        verdict = stability_check(fixture_maps[name])
        assert not verdict.stable
        assert not verdict.all_within_unit  # all five fail via magnitude > 1

    def test_equal_magnitudes_but_distinct_values_still_distinct(self, fixture_maps):
        # complex conjugate pairs share a magnitude without being equal
        verdict = stability_check(fixture_maps["four_stable"])
        mags = verdict.magnitudes
        assert mags == pytest.approx([0.8, 0.8, 0.8], abs=1e-9)
        assert verdict.all_distinct

    def test_repeated_eigenvalue_fails_distinctness(self):
        # two disjoint 2-cycles with identical weights: eigenvalues +-0.5 twice
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.5
        w[2, 3] = w[3, 2] = 0.5
        verdict = stability_check(CognitiveMap(w))
        assert verdict.all_within_unit
        assert not verdict.all_distinct
        assert not verdict.stable

    @given(
        parts=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e-7, -0.3, 0.3, 0.3 + 5e-7, 0.8, 1.0]),
                st.sampled_from([0.0, 2e-7, 0.5, 0.5 + 1e-6]),
                st.booleans(),
            ),
            max_size=8,
        ),
        noise=st.lists(st.floats(-1.0, 1.0), max_size=6),
        tol=st.sampled_from([0.0, 1e-9, 1e-6, 3e-6, 1e-3, 0.1, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_distinctness_matches_all_pairs(self, parts, noise, tol):
        # grid values give ties and near-ties, conjugate pairs share a real
        # part, and the noise spreads the rest
        values = [complex(re, im) for re, im, _ in parts]
        values += [complex(re, -im) for re, im, conjugate in parts if conjugate]
        values += [complex(x, x / 3) for x in noise]
        pairs = all(
            abs(values[i] - values[j]) > tol
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        assert _all_distinct(values, tol) == pairs

    def test_edgeless_map_is_stable(self):
        verdict = stability_check(CognitiveMap(np.zeros((3, 3))))
        assert verdict.stable
        assert verdict.magnitudes == ()

    def test_stable_singular_map_is_not_refused(self):
        # spectral radius 0.8 and a four-fold zero eigenvalue with a 2x2
        # Jordan block (rank 9); an eigensolver that splits that block into a
        # pair at ~3e-9, above the zero threshold, sees a repeated nonzero
        # eigenvalue and wrongly refuses the map
        w = np.zeros((12, 12))
        for (i, j), x in STABLE_SINGULAR_EDGES.items():
            w[i, j] = x
        m = CognitiveMap(w)
        verdict = stability_check(m)
        assert verdict.stable
        assert verdict.spectral_radius == pytest.approx(0.8, abs=1e-12)
        assert len(verdict.magnitudes) == 8
        report = impulse_general_influence(m)
        assert len(report.scores) == 12
        assert all(np.isfinite(report.scores))


# 26 edges of a random 12-vertex map scaled to spectral radius 0.8
STABLE_SINGULAR_EDGES = {
    (0, 10): 0.3427828005004531,
    (1, 6): -0.3705542794815841,
    (1, 7): 0.46866376545955907,
    (2, 0): 0.6272476704693597,
    (2, 8): 0.0006442979803555286,
    (2, 10): 0.8526450364907874,
    (2, 11): -0.3379419183735333,
    (3, 0): 0.526264980588899,
    (3, 6): 0.49649350940106746,
    (5, 7): 0.010963188447192504,
    (6, 2): -0.37014247615321155,
    (8, 0): 0.8404936706821912,
    (8, 1): -0.6788400221254705,
    (8, 2): -0.3359787562971868,
    (8, 10): 0.7550366729534049,
    (9, 1): 0.48584222451270337,
    (9, 2): -0.17780616465666968,
    (9, 11): -0.7644796586143539,
    (10, 2): 0.1753187714513803,
    (10, 6): -0.020879623698214212,
    (10, 7): 0.04632891696120753,
    (10, 8): -0.6639523733145555,
    (10, 9): -0.634394361521938,
    (11, 1): -0.519097795401207,
    (11, 2): 0.1386453724767103,
    (11, 7): 0.5153311969158174,
}


class TestImpulseScores:
    def test_reference_scores_reproduced(self, fixture_maps):
        report = impulse_general_influence(fixture_maps["four_stable"])
        gold = golden("four_stable")
        # recorded table truncates to 3 decimals (4.8996 appears as 4.899)
        assert list(report.scores) == pytest.approx(gold["impulse_scores"], abs=1e-3)
        assert list(report.ranking) == gold["impulse_ranking"]

    def test_sanitation_ranking_matches_recorded_table(self, fixture_maps):
        report = impulse_general_influence(fixture_maps["sanitation"])
        gold = golden("sanitation")
        assert list(report.ranking) == gold["impulse_ranking"]
        # recorded scores came from a looser convergence cutoff; log, don't assert
        print("impulse scores (computed vs recorded):")
        for i, (got, want) in enumerate(zip(report.scores, gold["impulse_scores_recorded"])):
            print(f"  vertex {i + 1}: {got:.4f} vs {want}")

    def test_zero_map_scores_zero(self):
        report = impulse_general_influence(CognitiveMap(np.zeros((3, 3))))
        assert report.scores == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", UNSTABLE_FIXTURES)
    def test_unstable_maps_refused_with_verdict(self, name, fixture_maps):
        with pytest.raises(MethodNotApplicableError) as excinfo:
            impulse_general_influence(fixture_maps[name])
        assert excinfo.value.verdict is not None
        assert not excinfo.value.verdict.stable
        assert "accumulated" in str(excinfo.value)


def heavy_chain(*weights: float) -> CognitiveMap:
    """The path 1 -> 2 -> ... with these edge weights (0 for no edge).

    It is nilpotent, so the verdict is stable whatever the weights, and
    weights of 1e200 overflow at the second edge an impulse crosses.
    """
    n = len(weights) + 1
    w = np.zeros((n, n))
    for i, x in enumerate(weights):
        w[i, i + 1] = x
    return CognitiveMap(w)


def per_source_scores(m: CognitiveMap) -> list[float]:
    """The scorer's rule run one simulation per source vertex."""
    scores = []
    for i in range(m.n):
        change = np.abs(simulate(m, unit_impulse(m.n, i)).final_values)
        change[i] = 0.0
        scores.append(float(change.sum()))
    return scores


class TestLockstepScoring:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 60, 90])
    def test_stacked_matmul_is_one_gemv_per_row(self, n):
        # the scorer advances all rows with one stacked matmul and relies on
        # each row getting the bits of a lone matrix-vector product
        rng = np.random.default_rng(n)
        w = rng.uniform(-1, 1, (n, n))
        P = rng.standard_normal((n + 3, n))
        for A in (w, w.T):
            stacked = (A @ P[:, :, None])[:, :, 0]
            for j in range(len(P)):
                assert stacked[j].tobytes() == (A @ P[j]).tobytes()

    @given(
        m=cognitive_maps(min_n=1, max_n=12),
        shape=st.sampled_from(["scaled", "singular", "nilpotent"]),
        radius=st.floats(0.05, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_per_source_simulation_bit_for_bit(self, m, shape, radius):
        w = m.weights.copy()
        if shape == "singular":
            w[:, 0] = 0.0
        elif shape == "nilpotent":
            w = np.triu(w, 1)
        rho = max(np.abs(np.linalg.eigvals(w)), default=0.0)
        if shape != "nilpotent" and rho > 0:
            w *= radius / rho
        m = CognitiveMap(w)
        assume(stability_check(m).stable)
        got = impulse_general_influence(m).scores
        assert np.array(got).tobytes() == np.array(per_source_scores(m)).tobytes()

    @pytest.mark.parametrize(
        "weights, step, source",
        [
            # vertex 1 converges at step 1, vertex 2 overflows at step 2
            ((0.0, 1e200, 1e200), 2, 1),
            # vertices 1 and 2 both overflow at step 2
            ((1e200, 1e200, 1e200), 2, 0),
            # vertex 2 overflows at step 2, vertex 1 only at step 3
            ((1.0, 1e200, 1e200), 3, 0),
        ],
    )
    def test_lowest_diverging_source_is_reported(self, weights, step, source):
        m = heavy_chain(*weights)
        with pytest.raises(ImpulseDivergenceError) as excinfo:
            simulate(m, unit_impulse(m.n, source))
        assert (excinfo.value.step, excinfo.value.source) == (step, None)
        with pytest.raises(ImpulseDivergenceError) as excinfo:
            impulse_general_influence(m)
        assert (excinfo.value.step, excinfo.value.source) == (step, source)
        assert str(excinfo.value) == (
            f"impulse simulation from vertex {source + 1} diverged: "
            f"non-finite value at step {step}"
        )

    def test_a_lower_source_that_does_not_converge_takes_precedence(self):
        # vertices 1 and 2 form a slow 2-cycle (eigenvalues +-0.9); vertex 3
        # heads a heavy chain that overflows at step 2
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = 0.9
        w[2, 3] = w[3, 4] = 1e200
        m = CognitiveMap(w)
        with pytest.raises(MethodNotApplicableError, match="from vertex 1 did not converge"):
            impulse_general_influence(m, max_steps=50)
        with pytest.raises(ImpulseDivergenceError) as excinfo:
            impulse_general_influence(m)
        assert (excinfo.value.step, excinfo.value.source) == (2, 2)

    def test_budget_refusal_names_the_first_vertex(self, fixture_maps):
        with pytest.raises(MethodNotApplicableError) as excinfo:
            impulse_general_influence(fixture_maps["four_stable"], max_steps=3)
        assert str(excinfo.value) == (
            "impulse simulation from vertex 1 did not converge within 3 steps despite "
            "a stable verdict (spectral radius 0.8 is too close to 1)"
        )
        assert excinfo.value.verdict.stable

    def test_argument_validation(self, fixture_maps):
        m = fixture_maps["four_stable"]
        with pytest.raises(ValueError):
            impulse_general_influence(m, max_steps=0)
        with pytest.raises(ValueError):
            impulse_general_influence(m, eps=0.0)


class TestAgainstNeumannOracle:
    @pytest.mark.parametrize("name", STABLE_FIXTURES)
    def test_converged_change_matches_series(self, name, fixture_maps):
        m = fixture_maps[name]
        for start in range(m.n):
            p0 = unit_impulse(m.n, start)
            trace = simulate(m, p0, eps=1e-12, max_steps=10_000)
            assert trace.converged
            expected = neumann_cumulative_change(m.weights, p0)
            assert np.allclose(trace.values[-1] - trace.values[0], expected, atol=1e-8)

    def test_random_contracting_maps(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_map(rng, int(rng.integers(2, 7)), density=0.6)
            radius = max(np.abs(np.linalg.eigvals(m.weights)), default=0.0)
            if radius >= 0.95:
                m = scale_map(m, 0.8 / radius)
            p0 = unit_impulse(m.n, int(rng.integers(m.n)))
            trace = simulate(m, p0, eps=1e-12, max_steps=10_000)
            assert trace.converged
            expected = neumann_cumulative_change(m.weights, p0)
            assert np.allclose(trace.values[-1] - trace.values[0], expected, atol=1e-8)


class TestInstabilityConsequences:
    @pytest.mark.parametrize("name", UNSTABLE_FIXTURES)
    def test_some_unit_impulse_fails_to_converge(self, name, fixture_maps):
        m = fixture_maps[name]
        outcomes = []
        for start in range(m.n):
            try:
                trace = simulate(m, unit_impulse(m.n, start), max_steps=200)
                outcomes.append(trace.converged)
            except ImpulseDivergenceError:
                outcomes.append(False)
        assert not all(outcomes)

    def test_scaling_can_break_stability(self, fixture_maps):
        # the sanitation map is stable, its doubled version is not
        assert stability_check(fixture_maps["sanitation"]).stable
        assert not stability_check(scale_map(fixture_maps["sanitation"], 2)).stable
        assert not stability_check(fixture_maps["sanitation_doubled"]).stable
