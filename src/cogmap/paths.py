"""Enumeration of simple directed paths between an ordered vertex pair.

A simple path visits no vertex twice.  Enumeration is a forward depth-first
search over nonzero edges with a visited set and an explicit stack (so a
path may be longer than the interpreter's recursion limit), exploring
neighbours in ascending index order, which yields paths in lexicographic
order by vertex sequence.  Two runs on the same map therefore produce
identical ordered results, and distinct source/target pairs can be
enumerated concurrently (the map is immutable and the search keeps no
shared state).

Path counts explode combinatorially (between two fixed vertices of the
complete digraph K_n there are already 1957 simple paths at n = 8), so the
budgeted variant is what higher layers use: it aborts with a typed error
once a path-count budget is exceeded, never truncating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PathBudgetError
from .maps import CognitiveMap

__all__ = [
    "PathSet",
    "enumerate_simple_paths",
    "enumerate_with_budget",
    "count_paths_complete",
    "DEFAULT_MAX_PATHS",
]

DEFAULT_MAX_PATHS = 10**6


@dataclass(frozen=True)
class PathSet:
    """All simple paths from ``source`` to ``target``, lexicographically ordered."""

    source: int
    target: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.paths)

    def edge_weights(self, cmap: CognitiveMap, path: tuple[int, ...]) -> tuple[float, ...]:
        """Weights along ``path``, in traversal order."""
        w = cmap.weights
        return tuple(float(w[a, b]) for a, b in zip(path, path[1:]))

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def _check_pair(cmap: CognitiveMap, source: int, target: int) -> None:
    n = cmap.n
    for name, v in (("source", source), ("target", target)):
        if not (isinstance(v, int) and 0 <= v < n):
            raise ValueError(f"{name} must be a vertex index in [0, {n}), got {v!r}")
    if source == target:
        raise ValueError(
            "source and target must differ: self-influence is 0 by definition, "
            "no paths are enumerated for it"
        )


def enumerate_with_budget(
    cmap: CognitiveMap,
    source: int,
    target: int,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_len: int | None = None,
) -> PathSet:
    """Enumerate simple paths source -> target under explicit budgets.

    ``max_len`` bounds the path length in edges and defines which paths are
    in scope (a depth-bounded enumeration is complete for its depth, not a
    truncation).  ``max_paths`` guards the count: exceeding it raises
    :class:`PathBudgetError` carrying the partial count, so an oversized
    result can never be mistaken for a full one.
    """
    _check_pair(cmap, source, target)
    if max_paths < 1:
        raise ValueError(f"max_paths must be positive, got {max_paths}")
    if max_len is None:
        max_len = cmap.n
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")

    n = cmap.n
    successors = [[j for j, x in enumerate(row) if x != 0.0] for row in cmap.weights.tolist()]
    found: list[tuple[int, ...]] = []
    path = [source]
    on_path = [False] * n
    on_path[source] = True
    stack = [iter(successors[source])]  # one successor iterator per path vertex
    while stack:
        for nxt in stack[-1]:
            if nxt == target:
                if len(found) >= max_paths:
                    raise PathBudgetError(source, target, len(found) + 1, max_paths)
                found.append(tuple(path) + (target,))
            # a path of k vertices has k-1 edges; len(path) <= max_len holds
            # throughout, so closing with the target never exceeds the bound
            elif len(path) < max_len and not on_path[nxt]:
                on_path[nxt] = True
                path.append(nxt)
                stack.append(iter(successors[nxt]))
                break
        else:
            stack.pop()
            on_path[path.pop()] = False
    return PathSet(source, target, tuple(found))


def enumerate_simple_paths(cmap: CognitiveMap, source: int, target: int) -> PathSet:
    """All simple paths source -> target; empty when the target is unreachable."""
    return enumerate_with_budget(cmap, source, target, max_paths=DEFAULT_MAX_PATHS)


def count_paths_complete(n: int) -> int:
    """Number of simple paths between two fixed distinct vertices of K_n.

    Paths may use k = 0 .. n-2 intermediate vertices, ordered, drawn from the
    n-2 vertices that are neither endpoint:

        s = sum over k of (n-2)! / (n-2-k)!

    which is strictly below e * (n-2)!.
    """
    if n < 2:
        raise ValueError(f"need at least the two endpoint vertices, got n={n}")
    f = math.factorial
    return sum(f(n - 2) // f(n - 2 - k) for k in range(n - 1))
