from __future__ import annotations

import cogmap

PUBLIC_NAMES = {
    "CogmapError",
    "EigenConvergenceError",
    "ImpulseDivergenceError",
    "MethodNotApplicableError",
    "NonFiniteInfluenceError",
    "PathBudgetError",
    "ValidationError",
    "CognitiveMap",
    "complete_map",
    "dumps_map",
    "load_map",
    "max_abs_weight",
    "reachability_closure",
    "save_map",
    "scale_map",
    "DEFAULT_MAX_PATHS",
    "PathSet",
    "count_paths_complete",
    "enumerate_simple_paths",
    "enumerate_with_budget",
    "InfluenceReport",
    "PathInfluence",
    "accumulate_full",
    "accumulate_truncated",
    "damping",
    "general_influence",
    "influence_matrix",
    "pair_influence",
    "path_influence",
    "rank_by_score",
    "eigenvalues",
    "ImpulseTrace",
    "StabilityVerdict",
    "characteristic_constants",
    "default_max_steps",
    "impulse_general_influence",
    "simulate",
    "stability_check",
    "KoskoInfluence",
    "path_indirect_influence",
    "total_influence",
    "FIXTURE_NAMES",
    "fixture_path",
    "golden",
    "load_fixture",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(cogmap.__all__) == len(PUBLIC_NAMES) == 46
    assert set(cogmap.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in cogmap.__all__:
        assert getattr(cogmap, name) is not None, name
