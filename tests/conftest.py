from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from cogmap import CognitiveMap, load_fixture

ALL_FIXTURES = (
    "four_stable",
    "four_unstable",
    "four_heavy",
    "city_waste",
    "electricity",
    "sanitation",
    "sanitation_doubled",
)
UNSTABLE_FIXTURES = ("four_unstable", "four_heavy", "city_waste", "electricity", "sanitation_doubled")
STABLE_FIXTURES = ("four_stable", "sanitation")


@pytest.fixture(scope="session")
def fixture_maps() -> dict[str, CognitiveMap]:
    return {name: load_fixture(name) for name in ALL_FIXTURES}


def random_map(rng: np.random.Generator, n: int, density: float, scale: float = 3.0) -> CognitiveMap:
    """Random signed map with continuous weights (exact ties have measure zero)."""
    w = rng.uniform(-scale, scale, size=(n, n))
    w *= rng.random((n, n)) < density
    np.fill_diagonal(w, 0.0)
    return CognitiveMap(w)


_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=-8.0, max_value=8.0).filter(lambda x: abs(x) > 1e-3),
)


@st.composite
def cognitive_maps(draw, min_n: int = 2, max_n: int = 6) -> CognitiveMap:
    n = draw(st.integers(min_n, max_n))
    cells = draw(st.lists(_weight, min_size=n * n, max_size=n * n))
    w = np.array(cells).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    return CognitiveMap(w)


def verify_influence_golden(cmap: CognitiveMap, gold: dict, Z: np.ndarray) -> list[str]:
    """Check a computed influence matrix against a golden file.

    Regular entries must match the recorded 3-decimal values within the
    documented 0.005 absolute tolerance.  Entries listed as known recording
    slips must instead match the independently coded straight-line oracle;
    a note is returned for each so callers can log them.
    """
    from oracles import oracle_pair_influence

    import cogmap

    recorded = np.array(gold["influence"], dtype=float)
    flagged = {(r - 1, c - 1) for r, c in gold.get("influence_deviations", [])}
    mu = cogmap.max_abs_weight(cmap)
    notes = []
    for i in range(cmap.n):
        for j in range(cmap.n):
            if (i, j) in flagged:
                want = oracle_pair_influence(cmap.weights, i, j, mu)
                assert Z[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12), (
                    f"flagged entry ({i + 1},{j + 1}) does not even match the oracle"
                )
                notes.append(
                    f"{gold['name']} ({i + 1},{j + 1}): recorded {recorded[i, j]} is a "
                    f"known slip; oracle-verified value {want:.6f}"
                )
            else:
                assert abs(Z[i, j] - recorded[i, j]) <= 0.005, (
                    f"{gold['name']} entry ({i + 1},{j + 1}): computed {Z[i, j]:.6f} "
                    f"vs recorded {recorded[i, j]}"
                )
    return notes


def verify_report_golden(gold: dict, scores, ranking) -> None:
    """Check scores (0.005 absolute) and the exact ranking permutation."""
    flagged = set(gold.get("score_deviations", []))
    for vertex0, (got, want) in enumerate(zip(scores, gold["scores"])):
        if vertex0 + 1 in flagged:
            continue
        assert abs(got - want) <= 0.005, (
            f"{gold['name']} score of vertex {vertex0 + 1}: computed {got:.6f} vs recorded {want}"
        )
    assert list(ranking) == list(gold["ranking"])
