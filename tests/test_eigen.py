from __future__ import annotations

import numpy as np
import pytest

from cogmap import eigenvalues


def assert_spectra_match(A, tol_scale: float = 1e-7) -> None:
    """Greedy multiset match between our eigenvalues and the reference solver."""
    ours = eigenvalues(A)
    ref = list(np.linalg.eigvals(np.asarray(A, dtype=float)))
    assert len(ours) == len(ref)
    radius = max((abs(r) for r in ref), default=0.0)
    tol = tol_scale * max(1.0, radius)
    for lam in ours:
        dists = [abs(lam - r) for r in ref]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"eigenvalue {lam} has no partner within {tol}"
        ref.pop(k)


class TestAgainstReference:
    def test_bundled_maps(self, fixture_maps):
        for m in fixture_maps.values():
            assert_spectra_match(m.weights, tol_scale=1e-9)

    @pytest.mark.parametrize(
        "A",
        [
            np.zeros((1, 1)),
            np.array([[3.5]]),
            np.zeros((5, 5)),
            np.eye(6),
            np.diag(np.ones(5), 1),                      # nilpotent Jordan block
            np.ones((7, 7)),                             # rank one, eigenvalue 7
            np.roll(np.eye(8), 1, axis=1),               # 8-cycle: unit roots
            np.triu(np.arange(36, dtype=float).reshape(6, 6)),
        ],
        ids=["1x1-zero", "1x1", "zeros", "identity", "jordan", "ones", "cycle", "triangular"],
    )
    def test_structured_matrices(self, A):
        assert_spectra_match(A)

    def test_upper_triangular_is_read_off_exactly(self):
        A = np.triu(np.array([[4.0, 1, 2], [0, -3, 5], [0, 0, 0.5]]))
        got = sorted(eigenvalues(A).real.tolist())
        assert got == pytest.approx([-3.0, 0.5, 4.0], abs=1e-12)

    def test_badly_scaled(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        A[0] *= 1e6
        A[:, 3] *= 1e-6
        assert_spectra_match(A)


class TestInterface:
    def test_deterministic_order(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 9))
        first = eigenvalues(A)
        second = eigenvalues(A)
        assert np.array_equal(first, second)
        mags = np.abs(first)
        assert all(mags[i] >= mags[i + 1] - 1e-12 for i in range(len(mags) - 1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_empty_matrix_has_no_eigenvalues(self):
        eigs = eigenvalues(np.zeros((0, 0)))
        assert (eigs.shape, eigs.dtype) == ((0,), np.dtype(complex))

    def test_conjugate_pairs_come_out_conjugate(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        eigs = eigenvalues(A)
        assert sorted(e.imag for e in eigs) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert [e.real for e in eigs] == pytest.approx([0.0, 0.0], abs=1e-12)
