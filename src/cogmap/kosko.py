"""Weakest-link / strongest-path influence baseline.

A path transmits only as much influence as its weakest edge, and the total
influence of i on j is the strongest transmission over all simple paths.
The classical formulation assumes fuzzy weights in [0, 1]; applied to signed
weights the minimum is taken over raw values by default, with an option to
rank by magnitude instead (``abs_weights=True``) for signed maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maps import CognitiveMap
from .paths import DEFAULT_MAX_PATHS, enumerate_with_budget

__all__ = ["KoskoInfluence", "path_indirect_influence", "total_influence"]


@dataclass(frozen=True)
class KoskoInfluence:
    """Per-path weakest links and their maximum for a vertex pair.

    ``total`` is None when no path exists (explicit "no influence" rather
    than a sentinel number).
    """

    source: int
    target: int
    per_path: dict[tuple[int, ...], float]
    total: float | None


def path_indirect_influence(
    cmap: CognitiveMap, path: tuple[int, ...], *, abs_weights: bool = False
) -> float:
    """Weakest edge weight along ``path`` (or weakest magnitude)."""
    return float(_weakest_link(cmap.weights, path, abs_weights))


def _weakest_link(rows, path, abs_weights: bool):
    """Smallest ``rows[a][b]`` (or its magnitude) over the edges of ``path``."""
    edges = [rows[a][b] for a, b in zip(path, path[1:])]
    return min(map(abs, edges)) if abs_weights else min(edges)


def total_influence(
    cmap: CognitiveMap,
    source: int,
    target: int,
    *,
    abs_weights: bool = False,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_len: int | None = None,
) -> KoskoInfluence:
    """Strongest weakest-link influence of ``source`` on ``target``."""
    paths = enumerate_with_budget(cmap, source, target, max_paths=max_paths, max_len=max_len)
    rows = cmap.weights.tolist()
    per_path = {path: _weakest_link(rows, path, abs_weights) for path in paths}
    total = max(per_path.values()) if per_path else None
    return KoskoInfluence(source, target, per_path, total)
