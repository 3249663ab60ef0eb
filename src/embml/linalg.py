"""Dense complex Hermitian linear algebra for small positive definite matrices.

Everything here reduces to one lower Cholesky factorization plus triangular
solves; no explicit inverse is ever formed. Matrices are tiny (N of order 10),
so dense storage and eager validation are the right trade.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["NotPositiveDefinite", "HermitianMatrix", "hermitian_part"]


class NotPositiveDefinite(np.linalg.LinAlgError):
    """Raised when a matrix required to be positive definite is not."""


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Return 0.5 * (mat + mat^H), the Hermitian part of a square matrix."""
    return 0.5 * (mat + mat.conj().T)


class HermitianMatrix:
    """A complex Hermitian matrix with a cached lower Cholesky factor.

    The input is symmetrized on construction (averaged with its conjugate
    transpose) so that drift from repeated rank-one updates cannot
    accumulate. The factor is computed lazily on first use and shared by
    every subsequent solve, quadratic form, and log-determinant.

    Parameters
    ----------
    mat : array_like, shape (n, n)
        Square complex matrix. Must be finite.
    assume_hermitian : bool
        Skip the symmetrization when the caller guarantees exact Hermitian
        symmetry (e.g. a sum of outer products x x^H). Default False.
    """

    __slots__ = ("mat", "_chol")

    def __init__(self, mat, *, assume_hermitian: bool = False):
        a = np.asarray(mat, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        self.mat = a if assume_hermitian else hermitian_part(a)
        self._chol: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular L with L L^H equal to the matrix.

        Raises
        ------
        NotPositiveDefinite
            If the factorization fails.
        """
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.mat)
            except np.linalg.LinAlgError as err:
                raise NotPositiveDefinite(str(err)) from err
        return self._chol

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve m x = b via two triangular solves on the cached factor."""
        l = self.chol
        y = scipy.linalg.solve_triangular(l, b, lower=True, check_finite=False)
        return scipy.linalg.solve_triangular(
            l.conj().T, y, lower=False, check_finite=False
        )

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """Return L^-1 b, the half-solve used by quadratic forms."""
        return scipy.linalg.solve_triangular(
            self.chol, b, lower=True, check_finite=False
        )

    def quad_form(self, a: np.ndarray, b: np.ndarray | None = None):
        """Return a^H m^-1 b (complex), or the real a^H m^-1 a when b is None."""
        wa = self.whiten(a)
        if b is None:
            # wa^H wa has an exactly zero imaginary part term by term
            return float(np.vdot(wa, wa).real)
        wb = self.whiten(b)
        return complex(np.vdot(wa, wb))

    def log_det(self) -> float:
        """log det of the matrix, via the factor's real positive diagonal."""
        return float(2.0 * np.sum(np.log(np.diagonal(self.chol).real)))

    def rank_one_update(self, w: float, x: np.ndarray) -> "HermitianMatrix":
        """Return a new HermitianMatrix equal to m + w x x^H, for w >= 0."""
        if w < 0:
            raise ValueError("rank-one weight must be nonnegative")
        x = np.asarray(x, dtype=np.complex128)
        # np.outer(x, conj(x)) is exactly Hermitian in IEEE arithmetic
        return HermitianMatrix(
            self.mat + w * np.outer(x, x.conj()), assume_hermitian=True
        )

    def __repr__(self) -> str:
        return f"HermitianMatrix(n={self.n})"

