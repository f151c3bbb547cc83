"""Eigenvalues of small dense real nonsymmetric matrices.

A thin wrapper around LAPACK's ``dgeev`` (via :func:`numpy.linalg.eigvals`),
which balances and scales the matrix itself.  The wrapper fixes the return
type and order so that stability verdicts and their output are deterministic,
and turns a LAPACK convergence failure into the package's own error type.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenConvergenceError

__all__ = ["eigenvalues"]


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix as a complex array.

    Returned in descending order of magnitude (ties by descending real part,
    then descending imaginary part) so output is deterministic.

    Raises :class:`EigenConvergenceError` if LAPACK's QR iteration fails to
    converge.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    try:
        # numpy returns a real array when every eigenvalue is real
        out = np.linalg.eigvals(A).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigenvalue computation did not converge for a {n}x{n} matrix: {exc}"
        ) from exc
    order = np.lexsort((-out.imag, -out.real, -np.abs(out)))
    return out[order]
