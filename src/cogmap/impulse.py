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

Scoring runs the n unit-impulse processes in lockstep, one row each, through
the loop that :func:`simulate` runs with one row.  A step is one stacked
matmul of the weights with n ``(n, 1)`` columns, which numpy computes as n
gemv calls, the call a single vector makes, so each score has the bits of
its own simulation.  A gemm over the n x n block would round differently.
When several processes fail, scoring reports the lowest vertex, as running
them one after another would.
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
    steps_to_converge: int | None

    @property
    def converged(self) -> bool:
        return self.steps_to_converge is not None

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
    p = np.array(p0, dtype=float).reshape(1, -1)  # the caller's p0 is copied once
    v = np.zeros((1, n)) if v0 is None else np.array(v0, dtype=float).reshape(1, -1)
    if p.shape != (1, n) or v.shape != (1, n):
        raise ValueError(f"p0 and v0 must be vectors of length {n}")
    history = [(v, p)]
    _, converged_at, diverged = _propagate(cmap.weights, v, p, max_steps, eps, history)
    if diverged is not None:
        raise ImpulseDivergenceError(diverged[1])
    values, impulses = (np.concatenate(blocks) for blocks in zip(*history))
    return ImpulseTrace(values, impulses, int(converged_at[0]) or None)


def _propagate(weights, V, P, max_steps, eps, history=None):
    """Advance the impulse processes in the rows of ``V`` and ``P`` in lockstep.

    Row r starts from values ``V[r]`` and impulse ``P[r]`` and runs until
    max |p| < eps or ``max_steps`` steps.  Each step of all rows is one
    stacked matmul, ``weights.T @ P[:, :, None]``: numpy computes a stack of
    ``(n, 1)`` columns with one gemv per entry, the call that a lone
    ``weights.T @ p`` makes, so each row gets the bits of its own
    simulation (a gemm over the whole block would not).  Converged rows are
    written out and dropped.  No history is kept unless ``history`` is a
    list, which then receives each step's ``(V, P)`` block.

    Returns ``(final, converged_at, diverged)``.  ``final[r]`` holds row r's
    values at step ``converged_at[r]``, where it converged; the step is 0
    for a row that did not.  ``diverged`` is ``(row, step)`` for the lowest
    row whose values became non-finite, or None.  Rows above a diverged row
    are dropped unfinished, since the lowest failing row is what callers
    report.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps!r}")
    final = np.empty_like(V)
    converged_at = np.zeros(len(V), dtype=int)
    diverged = None
    rows = np.arange(len(V))
    along_edges = weights.T  # propagate i -> j along w_ij
    # overflow is an expected outcome on unstable maps; it is reported as a
    # typed error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_steps + 1):
            V_next = V + (along_edges @ P[:, :, None])[:, :, 0]
            # the impulse is the realized change, so p(t) == v(t) - v(t-1)
            # holds bit for bit even after rounding
            P = V_next - V
            V = V_next
            if history is not None:
                history.append((V, P))
            peak = np.maximum.reduce(np.abs(P), axis=1)
            if not np.isfinite(peak).all():
                # v(t-1) is finite, so a non-finite v(t) makes p(t) non-finite;
                # a row whose v(t) is finite but whose p(t) overflowed goes on
                for r in np.flatnonzero(~np.isfinite(peak)):
                    if not np.isfinite(V[r]).all():
                        diverged = (int(rows[r]), t)
                        V, P, rows, peak = V[:r], P[:r], rows[:r], peak[:r]
                        break
            done = peak < eps
            if done.any():
                final[rows[done]] = V[done]
                converged_at[rows[done]] = t
                V, P, rows = V[~done], P[~done], rows[~done]
            if not rows.size:
                break
    return final, converged_at, diverged


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
    # Python complex arithmetic gives the bits of numpy's complex scalars
    # (both take abs from libm's hypot) at half the cost per pair
    values = tuple(eigs.tolist())
    mags = tuple(np.abs(eigs).tolist())
    radius = mags[0] if mags else 0.0
    tol = DISTINCTNESS_TOL * max(1.0, radius)
    all_distinct = _all_distinct(values, tol)
    all_within_unit = all(m <= 1.0 + UNIT_CIRCLE_TOL for m in mags)
    return StabilityVerdict(values, mags, all_distinct, all_within_unit)


def _all_distinct(values, tol: float) -> bool:
    """Whether all ``values`` are pairwise more than ``tol`` apart.

    Sorted by real part, a value meets only the later ones within ``tol`` in
    real part: ``abs`` (libm's hypot) of a difference is at least its real part's.
    """
    ordered = sorted(values, key=lambda z: z.real)
    for i, a in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            b = ordered[j]
            if b.real - a.real > tol:
                break
            if not abs(a - b) > tol:
                return False
    return True


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
    if max_steps is None:
        max_steps = default_max_steps(n)
    final, converged_at, diverged = _propagate(
        cmap.weights, np.zeros((n, n)), np.eye(n), max_steps, eps
    )
    unfinished = np.flatnonzero(converged_at == 0)
    if unfinished.size:
        i = int(unfinished[0])
        if diverged is not None and diverged[0] == i:
            raise ImpulseDivergenceError(diverged[1], source=i)
        raise MethodNotApplicableError(
            f"impulse simulation from vertex {i + 1} did not converge within "
            f"{max_steps} steps despite a stable verdict (spectral radius "
            f"{verdict.spectral_radius:.6g} is too close to 1)",
            verdict=verdict,
        )
    change = np.abs(final)  # every process starts from zero values
    np.fill_diagonal(change, 0.0)
    scores = change.sum(axis=1).tolist()
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
