"""Exception types shared across the package."""

from __future__ import annotations


class CogmapError(Exception):
    """Base class for all cogmap-specific errors."""


class ValidationError(CogmapError):
    """A map file or matrix failed validation (non-square, bad cell, ...)."""


class PathBudgetError(CogmapError):
    """Simple-path enumeration hit its path-count budget.

    Carries the pair being enumerated and how many paths were found before
    the search was aborted, so callers never mistake an aborted enumeration
    for a complete one.
    """

    def __init__(self, source: int, target: int, found: int, max_paths: int):
        self.source = source
        self.target = target
        self.found = found
        self.max_paths = max_paths
        super().__init__(
            f"path enumeration for pair ({source}, {target}) exceeded the "
            f"budget of {max_paths} paths ({found} found before aborting)"
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
    """An impulse simulation produced a non-finite value."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"impulse simulation diverged: non-finite value at step {step}")


class MethodNotApplicableError(CogmapError):
    """A method was requested on a map it is not defined for.

    ``verdict`` carries the stability verdict that triggered the refusal.
    """

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)


class EigenConvergenceError(CogmapError):
    """The eigenvalue computation (LAPACK's QR iteration) failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        self.iterations = iterations
        super().__init__(message)
