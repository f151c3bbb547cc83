"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CogmapError",
    "ValidationError",
    "PathBudgetError",
    "NonFiniteInfluenceError",
    "ImpulseDivergenceError",
    "MethodNotApplicableError",
    "EigenConvergenceError",
]


class CogmapError(Exception):
    """Base class for all cogmap-specific errors."""


class ValidationError(CogmapError):
    """A map file or matrix failed validation (non-square, bad cell, ...)."""


class PathBudgetError(CogmapError):
    """Simple-path enumeration hit its path-count budget.

    Carries the pair being enumerated (0-based ``source`` and ``target``;
    the message uses 1-based vertex numbers) and how many paths were found
    before the search was aborted, always ``max_paths + 1``, so callers
    never mistake an aborted enumeration for a complete one.
    """

    def __init__(self, source: int, target: int, max_paths: int):
        self.source = source
        self.target = target
        self.found = max_paths + 1
        self.max_paths = max_paths
        super().__init__(
            f"path enumeration from vertex {source + 1} to vertex {target + 1} "
            f"exceeded the budget of {max_paths} paths ({self.found} found before aborting)"
        )


class NonFiniteInfluenceError(CogmapError):
    """An accumulated influence or a vertex score is not finite.

    One path can accumulate up to twice the largest weight, and sums over
    paths or over a row reach infinity sooner, so weights near the float
    maximum overflow.  ``pair`` names the first non-finite entry of the
    influence matrix in row-major order and ``max_weight`` its map's largest
    absolute weight; ``row`` names the first score whose sum overflows.  The
    attributes that do not apply are None.
    """

    def __init__(self, message: str, *, pair=None, row=None, max_weight=None):
        self.pair = pair
        self.row = row
        self.max_weight = max_weight
        super().__init__(message)


class ImpulseDivergenceError(CogmapError):
    """An impulse simulation produced a non-finite value.

    ``step`` is the step that produced it.  ``source`` is the 0-based vertex
    whose unit impulse diverged when impulse scoring raises the error (the
    message uses the 1-based number), and None when :func:`simulate` does.
    """

    def __init__(self, step: int, source: int | None = None):
        self.step = step
        self.source = source
        origin = "" if source is None else f" from vertex {source + 1}"
        super().__init__(
            f"impulse simulation{origin} diverged: non-finite value at step {step}"
        )


class MethodNotApplicableError(CogmapError):
    """A method was requested on a map it is not defined for.

    ``verdict`` carries the stability verdict that triggered the refusal.
    """

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)


class EigenConvergenceError(CogmapError):
    """The eigenvalue computation (LAPACK's QR iteration) failed to converge."""
