"""States in a fixed reference basis.

The computational basis plays the role of the incoherent basis throughout:
a state is incoherent when its density matrix is diagonal, and the support
of a pure state's amplitude vector determines how much coherence the state
can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ROUNDOFF_SUM,
    Tolerance,
    as_matrix,
    binary_entropy,
    hermitian_eigen,
    is_hermitian,
)

__all__ = [
    "PureState",
    "DensityMatrix",
    "CoherenceSet",
    "plus_state",
    "coherence_set",
    "coherence_rank",
    "dephase",
    "rel_entropy_coherence",
    "majorizes",
    "continuity_bound",
]


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
            raise ValueError("amplitudes must have unit squared norm within tol.abs_eps * dim")
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
            raise ValueError("density matrix must have unit trace within tol.abs_eps * dim")
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


@dataclass(frozen=True)
class CoherenceSet:
    """Indices (0-based) of the basis states on which an amplitude vector lives."""

    dim: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if any(i < 0 or i >= self.dim for i in self.members):
            raise ValueError("members must lie in range(dim)")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted and duplicate-free")


def plus_state(d: int) -> PureState:
    """Uniform superposition over d basis states."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def coherence_set(psi: PureState, tol: Tolerance = DEFAULT_TOL) -> CoherenceSet:
    """Indices whose amplitude modulus exceeds tol.abs_eps."""
    idx = tuple(int(i) for i in np.flatnonzero(np.abs(psi.amplitudes) > tol.abs_eps))
    return CoherenceSet(dim=psi.dim, members=idx)


def coherence_rank(psi: PureState, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of basis states the pure state is supported on."""
    return len(coherence_set(psi, tol).members)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Kill all off-diagonal entries (full dephasing in the reference basis)."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), rho.tol)


def _shannon(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


def _eigen(rho: DensityMatrix, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    # rho's stored eigenpairs, read under tol: of hermitian_eigen(rho.matrix, tol), only its
    # Hermiticity test depends on tol, so a tol tighter than rho's still raises ValueError
    if not is_hermitian(rho.matrix, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return rho.eigen


def rel_entropy_coherence(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative entropy of coherence: S(dephased rho) - S(rho), in bits."""
    w, _ = _eigen(rho, tol)
    w = np.clip(w, 0.0, None)
    diag = np.clip(rho.diagonal(), 0.0, None)
    value = _shannon(diag) - _shannon(w)
    if value < -tol.abs_eps / 10:
        raise ValueError("entropy difference was negative beyond numerical noise")
    return max(value, 0.0)


def majorizes(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every partial sum of descending-sorted p dominates that of q."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("distributions must be 1-d arrays of equal length")
    for v in (a, b):
        if np.any(v < -ROUNDOFF_SUM):
            raise ValueError("distribution entries must be nonnegative")
        if abs(float(np.sum(v)) - 1.0) > tol.abs_eps / 10:
            raise ValueError("distribution must sum to 1 within tol.abs_eps / 10")
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(ca >= cb - tol.abs_eps))


def continuity_bound(eps: float, d: int) -> float:
    """Entropy continuity bound eps*log2(d) + 2*h(eps/2) for trace distance eps."""
    eps = float(eps)
    if eps < 0.0 or eps > 1.0:
        raise ValueError("eps must be in [0, 1]")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return eps * float(np.log2(d)) + 2.0 * binary_entropy(eps / 2.0)
