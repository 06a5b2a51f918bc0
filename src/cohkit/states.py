"""States in a fixed reference basis.

The computational basis plays the role of the incoherent basis throughout:
a state is incoherent when its density matrix is diagonal, and the support
of a pure state's amplitude vector determines how much coherence the state
can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, hermitian_eigen, is_hermitian

__all__ = ["PureState", "DensityMatrix", "plus_state", "rel_entropy_coherence"]


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the reference basis, held as a read-only copy; `==` is identity."""

    amplitudes: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-d array")
        if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
            raise ValueError("amplitudes must be finite")
        if not self.tol.close(abs(float(np.sum(np.abs(a) ** 2)) - 1.0), a.size):
            raise ValueError("amplitudes must have unit squared norm within tol.eps * dim")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        """Rank-1 density matrix |psi><psi|."""
        return np.outer(self.amplitudes, np.conj(self.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over the reference basis, held as a read-only copy; `==` is identity.

    `eigen` holds the read-only eigenvalues (ascending) and eigenvector columns of
    (matrix + matrix^dag) / 2 from the PSD check, so that callers never
    eigendecompose the state again.
    """

    matrix: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)
    eigen: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix).copy()  # as_matrix hands back the caller's complex array itself
        if m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        w, v = hermitian_eigen(m, self.tol)  # the test of is_psd, keeping the eigenpairs
        if not self.tol.psd(w):
            raise ValueError("density matrix must be Hermitian PSD within tolerance")
        if not self.tol.close(abs(float(np.real(np.trace(m))) - 1.0), m.shape[0]):
            raise ValueError("density matrix must have unit trace within tol.eps * dim")
        for x in (m, w, v):
            x.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigen", (w, v))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        """Populations in the reference basis, as a real vector."""
        return np.real(np.diag(self.matrix)).copy()


def plus_state(d: int) -> PureState:
    """Uniform superposition over d basis states."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def _shannon(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


def _eigen(rho: DensityMatrix, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    # rho's stored eigenpairs, read under tol: of hermitian_eigen(rho.matrix, tol), only its
    # Hermiticity test depends on tol, so a tol tighter than rho's still raises ValueError. Under
    # rho's own tol the constructor has already passed that test on the same read-only matrix
    if tol != rho.tol and not is_hermitian(rho.matrix, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return rho.eigen


def rel_entropy_coherence(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative entropy of coherence: S(dephased rho) - S(rho), in bits."""
    w, _ = _eigen(rho, tol)
    w = np.clip(w, 0.0, None)
    diag = np.clip(rho.diagonal(), 0.0, None)
    value = _shannon(diag) - _shannon(w)
    if value < -tol.eps / 10:
        raise ValueError("entropy difference was negative beyond numerical noise")
    return max(value, 0.0)
