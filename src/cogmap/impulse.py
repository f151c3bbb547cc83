"""Impulse propagation baseline: simulation, spectral stability, scoring.

Vertex values evolve in discrete time.  An impulse is the one-step change of
a vertex value, and impulses propagate along edge direction: the change of
vertex j at step t+1 is the weighted sum of the step-t changes of its
in-neighbours,

    v_j(t+1) = v_j(t) + sum_i w_ij * p_i(t),        p(t+1) = v(t+1) - v(t).

Whether trajectories stay bounded is a spectral question.  The classical
criterion used here: if all nonzero eigenvalues of the weight matrix are
pairwise distinct and none exceeds 1 in magnitude, every simple impulse
process is stable; otherwise some unit impulse blows up.  This is exactly
the method's weakness that the accumulated-influence algorithm avoids, so
the stability verdict is computed first and scoring refuses unstable maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import eigenvalues
from .errors import ImpulseDivergenceError, MethodNotApplicableError
from .influence import InfluenceReport, rank_by_score
from .maps import CognitiveMap, max_abs_weight

__all__ = [
    "ImpulseTrace",
    "StabilityVerdict",
    "simulate",
    "characteristic_constants",
    "stability_check",
    "impulse_general_influence",
    "default_max_steps",
]

ZERO_EIGENVALUE_TOL = 1e-9
UNIT_CIRCLE_TOL = 1e-9
DISTINCTNESS_TOL = 1e-6


def default_max_steps(n: int) -> int:
    """Default simulation budget: generous for small maps, capped at 1e5."""
    return min(1000 * n, 100_000)


@dataclass(frozen=True)
class ImpulseTrace:
    """History of one simulation.

    ``values[t]`` is the vertex-value vector at step t; ``impulses[t]`` the
    impulse vector, with ``impulses[0]`` the injected one and
    ``impulses[t] = values[t] - values[t-1]`` for t >= 1.
    """

    values: np.ndarray
    impulses: np.ndarray
    converged: bool
    steps_to_converge: int | None

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def final_values(self) -> np.ndarray:
        return self.values[-1]


def simulate(
    cmap: CognitiveMap,
    p0,
    v0=None,
    max_steps: int | None = None,
    eps: float = 1e-6,
) -> ImpulseTrace:
    """Run an impulse process until impulses die out or the budget is hit.

    Converged means max |p(t)| < eps.  A non-finite intermediate raises
    :class:`ImpulseDivergenceError` naming the step; an unstable map that
    merely keeps growing within the budget returns a non-converged trace.
    """
    n = cmap.n
    if max_steps is None:
        max_steps = default_max_steps(n)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps!r}")
    p = np.array(p0, dtype=float).reshape(-1)  # the caller's p0 is copied once
    v = (
        np.zeros(n)
        if v0 is None
        else np.asarray(v0, dtype=float).reshape(-1).copy()
    )
    if p.shape != (n,) or v.shape != (n,):
        raise ValueError(f"p0 and v0 must be vectors of length {n}")

    along_edges = cmap.weights.T  # propagate i -> j along w_ij
    # every step allocates fresh arrays, so the history keeps them uncopied
    values = [v]
    impulses = [p]
    converged = False
    steps_to_converge = None
    # overflow is an expected outcome on unstable maps; it is reported as a
    # typed error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_steps + 1):
            # v is finite here, so v_next is non-finite exactly when the
            # step along the edges is
            v_next = v + along_edges @ p
            if not np.isfinite(v_next).all():
                raise ImpulseDivergenceError(t)
            # the impulse is the realized change, so p(t) == v(t) - v(t-1)
            # holds bit for bit even after rounding
            p = v_next - v
            v = v_next
            values.append(v)
            impulses.append(p)
            if np.abs(p).max() < eps:
                converged = True
                steps_to_converge = t
                break
    return ImpulseTrace(np.array(values), np.array(impulses), converged, steps_to_converge)


@dataclass(frozen=True)
class StabilityVerdict:
    """Spectral stability assessment of a map.

    ``magnitudes`` are |lambda| of the nonzero eigenvalues in descending
    order.  ``stable`` requires the nonzero eigenvalues to be pairwise
    distinct as complex numbers and all magnitudes to be <= 1 (both up to
    small tolerances).
    """

    eigenvalues: tuple[complex, ...]
    magnitudes: tuple[float, ...]
    all_distinct: bool
    all_within_unit: bool

    @property
    def stable(self) -> bool:
        return self.all_distinct and self.all_within_unit

    @property
    def spectral_radius(self) -> float:
        return self.magnitudes[0] if self.magnitudes else 0.0


def characteristic_constants(cmap: CognitiveMap) -> np.ndarray:
    """Nonzero eigenvalues of the weight matrix, descending by magnitude.

    Eigenvalues indistinguishable from zero (|lambda| <= 1e-9 on the
    matrix's own scale) are dropped, since only nonzero ones enter the
    stability criterion; :func:`eigenvalues` returns them all.
    """
    eigs = eigenvalues(cmap.weights)
    scale = max(1.0, max_abs_weight(cmap))
    return eigs[np.abs(eigs) > ZERO_EIGENVALUE_TOL * scale]


def stability_check(cmap: CognitiveMap) -> StabilityVerdict:
    """Apply the spectral criterion; see :class:`StabilityVerdict`."""
    eigs = characteristic_constants(cmap)
    mags = tuple(float(m) for m in np.abs(eigs))
    radius = mags[0] if mags else 0.0
    tol = DISTINCTNESS_TOL * max(1.0, radius)
    all_distinct = all(
        abs(eigs[i] - eigs[j]) > tol
        for i in range(len(eigs))
        for j in range(i + 1, len(eigs))
    )
    all_within_unit = all(m <= 1.0 + UNIT_CIRCLE_TOL for m in mags)
    return StabilityVerdict(tuple(complex(e) for e in eigs), mags, all_distinct, all_within_unit)


def impulse_general_influence(
    cmap: CognitiveMap,
    eps: float = 1e-6,
    max_steps: int | None = None,
) -> InfluenceReport:
    """Impulse-method vertex scores; refuses maps that fail the stability check.

    Score of vertex i: inject a unit impulse at i over zero initial values,
    run to convergence, and sum |total change| over all other vertices.  The
    change at the source itself is excluded, mirroring the zero diagonal of
    the accumulated-influence matrix.

    Raises :class:`MethodNotApplicableError` carrying the verdict for
    unstable maps (that is the regime where this method has no answer and
    the accumulated-influence matrix should be used instead).
    """
    verdict = stability_check(cmap)
    if not verdict.stable:
        raise MethodNotApplicableError(
            "impulse scoring is undefined for this map: "
            + _verdict_reason(verdict)
            + "; use the accumulated-influence method instead",
            verdict=verdict,
        )
    n = cmap.n
    scores = []
    for i in range(n):
        p0 = np.zeros(n)
        p0[i] = 1.0
        trace = simulate(cmap, p0, max_steps=max_steps, eps=eps)
        if not trace.converged:
            raise MethodNotApplicableError(
                f"impulse simulation from vertex {i + 1} did not converge within "
                f"{trace.steps} steps despite a stable verdict (spectral radius "
                f"{verdict.spectral_radius:.6g} is too close to 1)",
                verdict=verdict,
            )
        change = np.abs(trace.final_values - trace.values[0])
        change[i] = 0.0
        scores.append(float(change.sum()))
    return InfluenceReport(tuple(scores), rank_by_score(scores))


def _verdict_reason(verdict: StabilityVerdict) -> str:
    """Why an unstable verdict failed; at least one reason always applies."""
    reasons = []
    if not verdict.all_within_unit:
        reasons.append(
            f"an eigenvalue magnitude exceeds 1 (largest {verdict.spectral_radius:.6g})"
        )
    if not verdict.all_distinct:
        reasons.append("the nonzero eigenvalues are not pairwise distinct")
    return " and ".join(reasons)
