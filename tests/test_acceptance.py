"""Acceptance suite: every release criterion, one test per criterion.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (visible with
``pytest -s`` or in failure output), with tolerances pinned in-line.  Known
recording slips in the golden data are verified against the independent
oracles and logged rather than silently accepted; the golden files list them
cell by cell.
"""

from __future__ import annotations

import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from cogmap import (
    CognitiveMap,
    ImpulseDivergenceError,
    complete_map,
    count_paths_complete,
    enumerate_simple_paths,
    fixture_path,
    general_influence,
    golden,
    impulse_general_influence,
    influence_matrix,
    load_fixture,
    max_abs_weight,
    path_influence,
    reachability_closure,
    scale_map,
    simulate,
    stability_check,
    total_influence,
)
from conftest import (
    ALL_FIXTURES,
    STABLE_FIXTURES,
    UNSTABLE_FIXTURES,
    random_map,
    verify_influence_golden,
    verify_report_golden,
)

from oracles import brute_force_paths, neumann_cumulative_change

GOLDEN_INFLUENCE_FIXTURES = (
    "four_stable",
    "four_unstable",
    "four_heavy",
    "city_waste",
    "electricity",
    "sanitation",
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_golden_influence_matrices(fixture_maps):
    with criterion(1, "golden influence matrices within 0.005"):
        for name in GOLDEN_INFLUENCE_FIXTURES:
            m = fixture_maps[name]
            Z = influence_matrix(m)
            notes = verify_influence_golden(m, golden(name), Z)
            for note in notes:
                print("  logged:", note)


def test_criterion_2_golden_rankings_and_scores(fixture_maps):
    with criterion(2, "golden rankings and scores"):
        for name in GOLDEN_INFLUENCE_FIXTURES:
            report = general_influence(influence_matrix(fixture_maps[name]))
            verify_report_golden(golden(name), report.scores, report.ranking)


def test_criterion_3_scale_equivariance(fixture_maps):
    with criterion(3, "scale equivariance on the sanitation map"):
        m = fixture_maps["sanitation"]
        gold = golden("sanitation")
        base = general_influence(influence_matrix(m))
        for eta in (0.01, 0.1, 2.0, 10.0, 100.0):
            scaled = general_influence(influence_matrix(scale_map(m, eta)))
            # exact recomputation scales by eta to within 1e-9 relative
            for got, base_score in zip(scaled.scores, base.scores):
                assert got == pytest.approx(eta * base_score, rel=1e-9)
            assert scaled.ranking == base.ranking
            # and matches the recorded scaled tables within 0.005
            key = f"{eta:g}"
            recorded = gold["scaled_scores"][key]
            flagged = set(gold.get("scaled_score_deviations", {}).get(key, []))
            for vertex0, (got, want) in enumerate(zip(scaled.scores, recorded)):
                if vertex0 + 1 in flagged:
                    assert got == pytest.approx(eta * base.scores[vertex0], rel=1e-9)
                    print(
                        f"  logged: sanitation x{key} vertex {vertex0 + 1}: recorded "
                        f"{want} is a known slip; equivariant value {got:.4f}"
                    )
                else:
                    assert abs(got - want) <= 0.005, (
                        f"eta={key} vertex {vertex0 + 1}: {got:.4f} vs recorded {want}"
                    )


def test_criterion_4_stability_verdicts(fixture_maps):
    with criterion(4, "stability verdicts and eigenvalue magnitudes within 0.01"):
        for name in ALL_FIXTURES:
            gold = golden(name)
            verdict = stability_check(fixture_maps[name])
            assert verdict.stable == gold["stable"], name
            got = sorted(verdict.magnitudes, reverse=True)
            want = sorted(gold["eigenvalue_magnitudes"], reverse=True)
            assert len(got) == len(want), name
            assert got == pytest.approx(want, abs=0.01), name
            if "eigenvalue_note" in gold:
                # cross-check the corrected values against the reference solver
                ref = np.linalg.eigvals(fixture_maps[name].weights)
                ref = sorted(np.abs(ref[np.abs(ref) > 1e-9]), reverse=True)
                assert got == pytest.approx(ref, abs=1e-9)
                print(f"  logged: {name}: {gold['eigenvalue_note']}")


def test_criterion_5_impulse_convergence_and_divergence(fixture_maps):
    with criterion(5, "impulse convergence on stable map, growth on unstable"):
        m = fixture_maps["four_stable"]
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        trace = simulate(m, p0, eps=1e-6, max_steps=100)
        assert trace.converged and trace.steps_to_converge <= 100
        for name in ("four_unstable", "four_heavy"):
            unstable = fixture_maps[name]
            grew = False
            for start in range(unstable.n):
                impulse = np.zeros(unstable.n)
                impulse[start] = 1.0
                try:
                    t = simulate(unstable, impulse, eps=1e-6, max_steps=200)
                except ImpulseDivergenceError:
                    grew = True
                    break
                if not t.converged and np.max(np.abs(t.impulses[-1])) > 1e6:
                    grew = True
                    break
            assert grew, f"{name}: no unit impulse grew within 200 steps"


def test_criterion_6_impulse_ranking(fixture_maps):
    with criterion(6, "impulse ranking on the stable four-vertex map"):
        report = impulse_general_influence(fixture_maps["four_stable"])
        assert list(report.ranking) == golden("four_stable")["impulse_ranking"] == [3, 2, 4, 1]
        # the sanitation comparison is logged, not asserted
        sanitation_report = impulse_general_influence(fixture_maps["sanitation"])
        recorded = golden("sanitation")["impulse_ranking"]
        print(
            f"  logged: sanitation impulse ranking {list(sanitation_report.ranking)} "
            f"vs recorded {recorded} "
            f"({'match' if list(sanitation_report.ranking) == recorded else 'differ'})"
        )


def test_criterion_7_path_enumeration_oracle():
    with criterion(7, "path enumeration vs brute force and complete-graph counts"):
        rng = np.random.default_rng(2026)
        densities = [0.2, 0.5, 0.8]
        for trial in range(200):
            m = random_map(rng, int(rng.integers(2, 7)), density=densities[trial % 3])
            for source in range(m.n):
                for target in range(m.n):
                    if source == target:
                        continue
                    got = list(enumerate_simple_paths(m, source, target).paths)
                    assert got == brute_force_paths(m.weights, source, target)
        expected_counts = {2: 1, 3: 2, 4: 5, 5: 16, 6: 65, 7: 326, 8: 1957}
        for n, expected in expected_counts.items():
            assert count_paths_complete(n) == expected
            assert enumerate_simple_paths(complete_map(n), 0, 1).count == expected
            assert expected < math.e * math.factorial(n - 2)


def test_criterion_8_property_suites(fixture_maps, tmp_path):
    with criterion(8, "boundedness, identities, sign rules, monotonicity, threads"):
        rng = np.random.default_rng(77)

        # boundedness |z_ij| < 2 mu s_ij, single-edge identity, zero iff unreachable
        for _ in range(500):
            m = random_map(rng, int(rng.integers(2, 7)), density=float(rng.uniform(0.2, 0.8)))
            mu = max_abs_weight(m)
            Z = influence_matrix(m)
            reach = reachability_closure(m)
            for i in range(m.n):
                for j in range(m.n):
                    if i == j:
                        assert Z[i, j] == 0.0
                        continue
                    assert (Z[i, j] == 0.0) == (not reach[i, j])
                    if not reach[i, j]:
                        continue
                    paths = enumerate_simple_paths(m, i, j)
                    assert abs(Z[i, j]) < 2 * mu * paths.count
                    if paths.count == 1 and len(paths.paths[0]) == 2:
                        assert Z[i, j] == m.weights[i, j]

        # two-edge sign rules: promote/promote and suppress/suppress transmit
        # positively, mixed chains negatively; verified against the recurrence
        table = {(1, 1): 1, (-1, -1): 1, (-1, 1): -1, (1, -1): -1}
        for (s1, s2), expected in table.items():
            for _ in range(20):
                w1 = s1 * rng.uniform(0.1, 3.0)
                w2 = s2 * rng.uniform(0.1, 3.0)
                chain = np.zeros((3, 3))
                chain[0, 1], chain[1, 2] = w1, w2
                cm = CognitiveMap(chain)
                partial = path_influence(cm, (0, 1, 2), max_abs_weight(cm)).partial
                assert math.copysign(1, partial) == expected

        # Kosko: total dominates every per-path value; raising an edge never
        # lowers any total
        for _ in range(25):
            m = random_map(rng, int(rng.integers(3, 6)), density=0.5)
            edges = np.argwhere(m.weights != 0.0)
            if edges.size == 0:
                continue
            a, b = edges[rng.integers(len(edges))]
            raised_w = m.weights.copy()
            raised_w[a, b] += rng.uniform(0.1, 2.0)
            raised = CognitiveMap(raised_w)
            for i in range(m.n):
                for j in range(m.n):
                    if i == j:
                        continue
                    before = total_influence(m, i, j)
                    if before.total is not None:
                        assert before.total == max(before.per_path.values())
                        after = total_influence(raised, i, j)
                        assert after.total >= before.total

        # thread count must not change a single output byte
        argv = [sys.executable, "-m", "cogmap", "analyze", str(fixture_path("city_waste"))]
        single = subprocess.run([*argv, "--threads", "1"], capture_output=True)
        multi = subprocess.run([*argv, "--threads", "4"], capture_output=True)
        assert single.returncode == multi.returncode == 0
        assert single.stdout == multi.stdout


def test_criterion_9_neumann_oracle(fixture_maps):
    with criterion(9, "simulation matches the independent series oracle within 1e-8"):
        for name in STABLE_FIXTURES:
            m = fixture_maps[name]
            for start in range(m.n):
                p0 = np.zeros(m.n)
                p0[start] = 1.0
                trace = simulate(m, p0, eps=1e-12, max_steps=10_000)
                assert trace.converged
                expected = neumann_cumulative_change(m.weights, p0)
                assert np.allclose(trace.values[-1] - trace.values[0], expected, atol=1e-8)
