"""Accumulated mutual influence over simple paths.

The influence of vertex i on vertex j is computed per simple path and summed.
Walking a path q_0, q_1, ..., q_{m-1}, the running value starts at 0 and each
edge multiplies its weight by a boost factor derived from what has been
accumulated so far:

    z(t+1) = (1 + sign(z(t)) * damping(|z(t)| / max_weight)) * w(q_t, q_{t+1})

with damping(x) = 1 - exp(-2x), the exponential CDF with rate 2.  Dividing by
the map's largest absolute weight before damping makes the recurrence
scale-free, and because 0 <= damping < 1 every boost factor stays in (0, 2),
so any accumulated value is bounded by twice the largest weight no matter how
long the path (a bound that itself overflows for weights near the float
maximum, where :func:`influence_matrix` raises instead).

The path's contribution is the full accumulation minus the same accumulation
started after the first edge (the part of the influence that does not involve
the source vertex).  Pair influence is the sum of contributions over all
simple paths, zero when no path exists, and zero on the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NonFiniteInfluenceError, PathBudgetError
from .maps import CognitiveMap, max_abs_weight
from .paths import DEFAULT_MAX_PATHS, PathSet, _check_budget, _complete_paths, _simple_paths

__all__ = [
    "damping",
    "accumulate_full",
    "accumulate_truncated",
    "PathInfluence",
    "path_influence",
    "pair_influence",
    "influence_matrix",
    "InfluenceReport",
    "general_influence",
    "rank_by_score",
]


def damping(x: float) -> float:
    """Damping coefficient 1 - exp(-2x) for x >= 0; strictly within [0, 1).

    The recurrence only ever evaluates this on [0, 2) because accumulated
    values stay below twice the normalizing weight, so the float64
    saturation to exactly 1.0 (x above ~18.7) is never reached in use.
    """
    if x < 0:
        raise ValueError(f"damping is defined for x >= 0, got {x!r}")
    return -math.expm1(-2.0 * x)


def _sign(x: float) -> float:
    if x > 0:
        return 1.0
    return -1.0 if x < 0 else 0.0


def _walk(weights: np.ndarray, path: tuple[int, ...], max_weight: float, start: int) -> float:
    """Run the accumulation recurrence along ``path`` from edge ``start``."""
    z = 0.0
    for t in range(start, len(path) - 1):
        z = (1.0 + _sign(z) * damping(abs(z / max_weight))) * float(weights[path[t], path[t + 1]])
    return z


def _check_accumulate_args(path, max_weight: float) -> None:
    if not (max_weight > 0 and math.isfinite(max_weight)):
        raise ValueError(f"max_weight must be positive and finite, got {max_weight!r}")
    if len(path) < 2:
        raise ValueError(f"a path needs at least two vertices, got {tuple(path)}")


def accumulate_full(cmap: CognitiveMap, path: tuple[int, ...], max_weight: float) -> float:
    """Accumulated value over the whole path (source vertex included).

    sign(0) = 0 collapses the first boost factor to 1, so a single-edge path
    returns its edge weight exactly.
    """
    _check_accumulate_args(path, max_weight)
    return _walk(cmap.weights, tuple(path), max_weight, start=0)


def accumulate_truncated(cmap: CognitiveMap, path: tuple[int, ...], max_weight: float) -> float:
    """Accumulated value ignoring the first edge (source vertex excluded).

    For a single-edge path there is nothing left to accumulate and the
    result is 0.
    """
    _check_accumulate_args(path, max_weight)
    return _walk(cmap.weights, tuple(path), max_weight, start=1)


@dataclass(frozen=True)
class PathInfluence:
    """Per-path influence decomposition: ``partial = full - truncated``."""

    path: tuple[int, ...]
    full: float
    truncated: float

    @property
    def partial(self) -> float:
        return self.full - self.truncated


def path_influence(cmap: CognitiveMap, path: tuple[int, ...], max_weight: float) -> PathInfluence:
    """Both accumulations and their difference for one path."""
    path = tuple(path)
    return PathInfluence(
        path,
        accumulate_full(cmap, path, max_weight),
        accumulate_truncated(cmap, path, max_weight),
    )


def pair_influence(
    cmap: CognitiveMap, source: int, target: int, max_weight: float, paths: PathSet
) -> float:
    """Sum of per-path partial influences, in the path set's canonical order.

    The summation order is fixed (lexicographic paths, left to right) so
    results are reproducible bit for bit.
    """
    total = 0.0
    for path in paths:
        total += path_influence(cmap, path, max_weight).partial
    return total


def influence_matrix(
    cmap: CognitiveMap,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_len: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """The full n x n matrix of accumulated pairwise influences.

    Each source row is one iterative depth-first walk over the simple paths
    leaving it, neighbours in ascending order (see :func:`_source_row`).  A
    step extends a path by one edge with two multiplications and adds the
    path's partial influence to the entry of its end vertex.  Preorder visits
    each target's paths in lexicographic order, the order of
    :func:`pair_influence` over :func:`enumerate_with_budget`, so the matrix
    is bit-identical to the pair by pair definition.  Unreachable pairs and
    the diagonal stay 0, and an edgeless map yields the zero matrix.

    ``threads`` is accepted and has no effect: the walk is pure Python, and
    under the GIL a thread pool was measured slower.

    ``max_paths`` bounds the paths per pair.  No pair has more paths of up to
    ``max_len`` edges than a pair of K_n, so when K_n's count fits, no count
    can fire and the walk keeps none.  Otherwise a row stops at its first
    overflowing target and its smaller targets are re-checked pair by pair
    (counting up to ``max_paths + 1`` paths each and keeping none), so the
    :class:`PathBudgetError` names the first overflowing pair in row-major
    order.  Raises :class:`NonFiniteInfluenceError` naming the first
    non-finite entry when weights near the float maximum overflow.
    """
    n = cmap.n
    max_len = _check_budget(n, max_paths, max_len)
    mu = max_abs_weight(cmap)
    Z = np.zeros((n, n))
    successors = [
        [(j, w) for j, w in enumerate(row) if w != 0.0] for row in cmap.weights.tolist()
    ]
    counted = _complete_paths(n, max_len, max_paths) > max_paths
    for source in range(n):
        row, overflow = _source_row(successors, source, mu, max_len, max_paths, counted)
        if overflow is not None:
            # a smaller target may overflow later in the walk; the first to
            # raise here is the first overflowing pair in row-major order
            for target in range(overflow):
                if target != source:
                    # skip max_paths paths, keeping none, and look for one more
                    paths = _simple_paths(cmap, source, target, max_len)
                    if next(islice(paths, max_paths, None), None) is not None:
                        raise PathBudgetError(source, target, max_paths)
            raise PathBudgetError(source, overflow, max_paths)
        Z[source] = row
    bad = np.argwhere(~np.isfinite(Z))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise NonFiniteInfluenceError(
            f"influence of vertex {i + 1} on vertex {j + 1} is {float(Z[i, j])!r}: weights "
            f"this large overflow the accumulation (largest |weight| {mu!r})",
            pair=(i, j),
            max_weight=mu,
        )
    return Z


def _source_row(successors, source, mu, max_len, max_paths, counted):
    """One source row by an iterative walk; ``(row, None)`` or ``(None, target)``.

    Frames hold ``(vertex, successor iterator, bf, bt, left)``: the boost
    factors ``1 + sign(z) * damping(|z| / mu)`` of the path's full and
    truncated values, the floats :func:`_walk` forms before multiplying by
    ``w`` (for z < 0, ``2 * (z / mu)`` is exactly ``-2 * |z / mu|``; z == 0
    gives 1.0 as sign(0) = 0 does), and the edges the path may still gain.
    The source frame has ``bt = 0.0``: the first edge's truncated value is
    ±0.0, so ``w - nt`` is ``w`` and its child's factor is 1.0.  A path that
    can grow forms its factors once; it is pushed only if its extensions can
    grow too, else they are walked inline, in frame order (maps have no
    self-loops, so the path's end need not be marked).  Paths per target are
    counted only if ``counted``.
    """
    expm1 = math.expm1
    row = [0.0] * len(successors)
    count = [0] * len(successors)
    on_path = [False] * len(successors)
    on_path[source] = True
    stack = [(source, iter(successors[source]), 1.0, 0.0, min(max_len, len(successors) - 1))]
    while stack:
        vertex, succ, bf, bt, left = stack[-1]
        for v, w in succ:
            if on_path[v]:
                continue
            nf = bf * w
            nt = bt * w
            row[v] += nf - nt
            if counted:
                count[v] += 1
                if count[v] > max_paths:
                    return None, v
            if left > 1:
                if nf > 0.0:
                    cf = 1.0 - expm1(-2.0 * (nf / mu))
                elif nf < 0.0:
                    cf = 1.0 + expm1(2.0 * (nf / mu))
                else:
                    cf = 1.0
                if nt > 0.0:
                    ct = 1.0 - expm1(-2.0 * (nt / mu))
                elif nt < 0.0:
                    ct = 1.0 + expm1(2.0 * (nt / mu))
                else:
                    ct = 1.0
                if left > 2:
                    on_path[v] = True
                    stack.append((v, iter(successors[v]), cf, ct, left - 1))
                    break
                for u, x in successors[v]:
                    if not on_path[u]:
                        row[u] += cf * x - ct * x
                        if counted:
                            count[u] += 1
                            if count[u] > max_paths:
                                return None, u
        else:
            stack.pop()
            on_path[vertex] = False
    return row, None


@dataclass(frozen=True)
class InfluenceReport:
    """Per-vertex influence scores, accumulated or impulse, plus the ranking.

    ``scores[i]`` belongs to vertex index i (0-based); ``ranking`` lists
    1-based vertex numbers from most to least influential, ties broken by
    ascending vertex number, matching how rankings are printed.
    """

    scores: tuple[float, ...]
    ranking: tuple[int, ...]


def rank_by_score(scores) -> tuple[int, ...]:
    """1-based vertex numbers sorted by descending score, ties by ascending number."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return tuple(i + 1 for i in order)


def general_influence(Z: np.ndarray) -> InfluenceReport:
    """Row sums of |Z|: how much each vertex influences the rest, ranked.

    Raises :class:`NonFiniteInfluenceError` naming the first row whose sum is
    not finite, instead of ranking infinite scores.
    """
    Z = np.asarray(Z, dtype=float)
    with np.errstate(over="ignore"):
        sums = np.abs(Z).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteInfluenceError(
            f"influence score of vertex {i + 1} is {float(sums[i])!r}: the sum of "
            f"|influence| over its row overflows",
            row=i,
        )
    scores = tuple(float(s) for s in sums)
    return InfluenceReport(scores, rank_by_score(scores))
