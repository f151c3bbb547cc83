"""Independent reference results that the benchmark checks cogmap's outputs against.

Nothing here calls cogmap.  Paths are found by a backward search from the
target over predecessor lists (cogmap walks forward from the source), the
influence recurrence is a straight-line loop over plain floats, impulse
scores come from the Neumann-series closed form solved with LAPACK, and
stability verdicts from ``numpy.linalg.eigvals``.
"""

from __future__ import annotations

import math

import numpy as np

# Same tolerances as the documented stability criterion.
ZERO_TOL = 1e-9
UNIT_TOL = 1e-9
DISTINCT_TOL = 1e-6


def read_csv_weights(path) -> np.ndarray:
    """Weights of a comma-separated map file, skipping a label header row."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        rows = rows[1:]
    return np.array([[float(c) for c in row] for row in rows])


def simple_paths(w: np.ndarray, source: int, target: int) -> list[tuple[int, ...]]:
    """Every simple path source -> target in lexicographic order."""
    n = w.shape[0]
    preds = [[i for i in range(n) if w[i, j] != 0.0] for j in range(n)]
    found = []
    stack = [(target,)]
    while stack:
        suffix = stack.pop()
        for p in preds[suffix[0]]:
            if p == source:
                found.append((source,) + suffix)
            elif p != target and p not in suffix:
                stack.append((p,) + suffix)
    return sorted(found)


def _accumulate(rows: list[list[float]], path, mu: float, start: int) -> float:
    z = 0.0
    for a, b in zip(path[start:], path[start + 1 :]):
        boost = 1.0 - math.exp(-2.0 * abs(z) / mu)
        z = (1.0 + math.copysign(boost, z) if z else 1.0) * rows[a][b]
    return z


def pair_influence(w: np.ndarray, source: int, target: int) -> float:
    """Sum over simple paths of the full minus the truncated accumulation."""
    rows = w.tolist()
    mu = float(np.max(np.abs(w)))
    return sum(
        _accumulate(rows, p, mu, 0) - _accumulate(rows, p, mu, 1)
        for p in simple_paths(w, source, target)
    )


def neumann_scores(w: np.ndarray, eps: float = 1e-6) -> tuple[list[float], float]:
    """Impulse scores in closed form, and how far a simulation may fall short of them.

    Score i is sum over j != i of |((I - W^T)^-1 - I) e_i|_j.  A simulation
    that stops once every impulse is below ``eps`` leaves unsummed the series
    started by its last impulse vector p (|p|_1 < n eps), so each of its
    scores is off by at most n * eps * |(I - W^T)^-1 - I|_1.
    """
    n = w.shape[0]
    change = np.linalg.solve(np.eye(n) - w.T, np.eye(n)) - np.eye(n)
    bound = n * eps * float(np.max(np.abs(change).sum(axis=0)))
    np.fill_diagonal(change, 0.0)
    return [float(s) for s in np.abs(change).sum(axis=0)], bound


def verdict(w: np.ndarray) -> tuple[bool, list[float]]:
    """(stable, nonzero eigenvalue magnitudes descending) from numpy's solver."""
    eigs = np.linalg.eigvals(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    eigs = eigs[np.abs(eigs) > ZERO_TOL * scale]
    mags = sorted((float(m) for m in np.abs(eigs)), reverse=True)
    tol = DISTINCT_TOL * max(1.0, mags[0] if mags else 0.0)
    distinct = all(
        abs(eigs[i] - eigs[j]) > tol for i in range(len(eigs)) for j in range(i + 1, len(eigs))
    )
    return distinct and all(m <= 1.0 + UNIT_TOL for m in mags), mags
