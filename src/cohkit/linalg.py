"""Dense complex linear algebra substrate.

All functions operate on plain numpy arrays with complex128 entries and
validate their inputs (shape, finiteness, Hermiticity where required),
raising ValueError on contract violations instead of silently coercing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "dagger",
    "frobenius",
    "is_hermitian",
    "hermitian_eigen",
    "is_psd",
]


@dataclass(frozen=True)
class Tolerance:
    """The package's one threshold eps: every tolerance of the package is read from here.

    eps bounds a deviation times the entries it runs over (`close`), cuts a spectrum at eps times
    its top (`rank_cut`), and bounds a value of magnitude scale at eps * (1 + scale) above its limit
    (`upper`, and through it `psd`). Checks of a computed witness allow eps * 10; input
    normalizations are held to eps / 10.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        value = float(self.eps)
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"eps must be finite and >= 0, got {value!r}")
        object.__setattr__(self, "eps", value)  # the float that was checked, hashable and ordered

    def close(self, dev: float, size: float = 1) -> bool:
        """Absolute equality: dev <= eps * size."""
        return dev <= self.eps * size

    def upper(self, limit: float, scale: float) -> float:
        """limit + eps * (1 + scale): the largest value of magnitude scale that counts as <= limit."""
        return limit + self.eps * (1.0 + scale)

    def psd(self, w: np.ndarray) -> bool:
        """The PSD rule on ascending eigenvalues w: w[0] >= -eps * (1 + max|w|)."""
        return bool(-w[0] <= self.upper(0.0, float(np.abs(w).max())))

    def rank_cut(self, top: float | np.ndarray) -> float | np.ndarray:
        """Eigen- or singular values above eps * max(top, 0) count toward a rank; elementwise on an array."""
        return self.eps * np.maximum(top, 0.0)


DEFAULT_TOL = Tolerance()

# Round-off guards: fixed floors far below any tolerance that keep float noise out
# of angles, roots and sums. They do not follow a Tolerance.
ROUNDOFF_SUM = 1e-12  # slack of probabilities, weights and conjugate pairs that round-off moves
ROUNDOFF_PHASE = 1e-14  # entries at most this keep phase 0 when pushed onto the unit circle
ROUNDOFF = 1e-15  # a step of the unimodular search below this has converged


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN and Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array with ndim={a.ndim}")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise ValueError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected a matrix of dimension >= 1, got shape (0, 0)")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (last two axes)."""
    return np.conj(m).swapaxes(-1, -2)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = _require_square(as_matrix(m))
    return tol.close(frobenius(a - dagger(a)), a.shape[0])


def hermitian_eigen(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and eigenvector columns of a Hermitian matrix.

    The input is symmetrized as (m + m^dag)/2 before the solve; inputs whose
    anti-Hermitian part exceeds eps * dim in Frobenius norm are rejected.
    """
    a = _require_square(as_matrix(m))
    if not tol.close(frobenius(a - dagger(a)), a.shape[0]):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w, v


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the minimum eigenvalue is >= -eps * (1 + max|eig|)."""
    return tol.psd(hermitian_eigen(m, tol)[0])

