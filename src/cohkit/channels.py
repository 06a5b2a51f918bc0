"""Quantum operations as Kraus operator lists.

A map is stored as an explicit Kraus representation; the representation is
part of the object's identity (two KrausMaps can describe the same channel
with different operator lists). Channel identity is decided through the Choi
matrix: two maps are considered equal when their Choi matrices agree within
1e-10 * dim in Frobenius norm.

Schur-type maps (entrywise multiplication by a fixed PSD matrix with
diagonal in [0, 1]) get a dedicated wrapper, since they describe exactly the
maps whose Kraus operators can all be chosen diagonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, dagger, frobenius, hermitian_eigen, is_psd
from .states import DensityMatrix

__all__ = [
    "CompletenessClass",
    "KrausMap",
    "SchurMatrix",
    "Permutation",
    "completeness_class",
    "apply",
    "choi_matrix",
    "extract_schur_matrix",
    "schur_map",
    "transform_representation",
    "minimal_representation",
    "permutation_unitary",
    "diagonal_unitary",
    "tensor_channels",
    "identity_channel",
    "dephasing_channel",
]

CHANNEL_EQ_FACTOR = 1e-10


class CompletenessClass(Enum):
    TRACE_PRESERVING = "trace_preserving"
    TRACE_NON_INCREASING = "trace_non_increasing"
    INVALID = "invalid"


def _kraus_list(kraus) -> list[np.ndarray]:
    if isinstance(kraus, KrausMap):
        return kraus.kraus
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        raise ValueError("Kraus list must be nonempty")
    d = ops[0].shape[0]
    for k in ops:
        if k.shape != (d, d):
            raise ValueError("all Kraus operators must be square with equal dimension")
    return ops


def completeness_class(kraus, tol: Tolerance = DEFAULT_TOL) -> CompletenessClass:
    """Classify sum_i K_i^dag K_i as trace preserving, non-increasing, or invalid.

    When the sum is exactly diagonal (diagonal operators, or one nonzero per
    row and column) its eigenvalues are read off the diagonal without eigh.
    """
    ops = _kraus_list(kraus)
    d = ops[0].shape[0]
    s = sum(dagger(k) @ k for k in ops)
    if frobenius(s - np.eye(d)) <= tol.abs_eps * d:
        return CompletenessClass.TRACE_PRESERVING
    diag = np.diagonal(s)
    # a diagonal passes hermitian_eigen's check when 2 ||Im diag|| <= abs_eps * d (complex
    # products leave round-off there), and eigh of it returns the sorted real diagonal
    if np.count_nonzero(s) == np.count_nonzero(diag) and 2.0 * frobenius(diag.imag) <= tol.abs_eps * d:
        w = np.sort(diag.real)
    else:
        w, _ = hermitian_eigen(s, tol)
    scale = float(np.max(np.abs(w)))
    if w[-1] <= 1.0 + tol.abs_eps + tol.rel_eps * scale:
        return CompletenessClass.TRACE_NON_INCREASING
    return CompletenessClass.INVALID


@dataclass
class KrausMap:
    """A completely positive, trace non-increasing map given by Kraus operators."""

    kraus: list[np.ndarray]
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        ops = _kraus_list(self.kraus)
        if completeness_class(ops, self.tol) is CompletenessClass.INVALID:
            raise ValueError("Kraus operators exceed trace preservation (sum K^dag K > 1)")
        self.kraus = ops

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


@dataclass
class SchurMatrix:
    """PSD matrix with diagonal entries in [0, 1] defining rho -> A * rho entrywise."""

    matrix: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        a = as_matrix(self.matrix)
        if a.shape[0] != a.shape[1]:
            raise ValueError("Schur matrix must be square")
        if not is_psd(a, self.tol):
            raise ValueError("Schur matrix must be Hermitian PSD within tolerance")
        diag = np.real(np.diag(a))
        if np.any(diag < -self.tol.abs_eps) or np.any(diag > 1.0 + self.tol.abs_eps):
            raise ValueError("Schur matrix diagonal must lie in [0, 1] within tolerance")
        self.matrix = a

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Permutation:
    """Bijection i -> mapping[i] on range(dim)."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.mapping)
        if sorted(self.mapping) != list(range(d)):
            raise ValueError("mapping must be a bijection on range(dim)")

    @property
    def dim(self) -> int:
        return len(self.mapping)

    def transpositions(self) -> list[tuple[int, int]]:
        """Two-cycles whose left-to-right matrix product reproduces the permutation.

        With ts = p.transpositions(), the product
        permutation_unitary_of(ts[0]) @ ... @ permutation_unitary_of(ts[-1])
        equals permutation_unitary(p).
        """
        seen = [False] * self.dim
        out: list[tuple[int, int]] = []
        for start in range(self.dim):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.mapping[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.mapping[nxt]
            for a, b in zip(cycle, cycle[1:]):
                out.append((a, b))
        return out


def apply(m: KrausMap, rho) -> tuple[np.ndarray, float]:
    """Apply the map; returns the unnormalized output and its trace (probability)."""
    a = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    if a.shape != (m.dim, m.dim):
        raise ValueError(f"state of shape {a.shape} does not match map dimension {m.dim}")
    out = np.zeros_like(a)
    for k in m.kraus:
        out += k @ a @ dagger(k)
    return out, float(np.real(np.trace(out)))


def _choi_vectors(m: KrausMap) -> np.ndarray:
    # row s holds vec(K_s) with index (input i, output a) -> i*d + a
    return np.stack([k.T.reshape(-1) for k in m.kraus])


def choi_matrix(m: KrausMap) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|)."""
    vecs = _choi_vectors(m)
    return np.einsum("si,sj->ij", vecs, np.conj(vecs))


def extract_schur_matrix(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> SchurMatrix | None:
    """Recover A with map(X) = A * X entrywise, or None when the map is not of that form.

    A = sum_s x_s x_s^dag over the Kraus diagonals x_s. The off-pattern residual
    (the norm of the basis-image entries A * X cannot produce, at most abs_eps * d)
    is sqrt(2 tr(Gx Gy) + ||Gy||_F^2), Gx and Gy the n x n Gram matrices of the
    diagonal and off-diagonal parts of the operators: O(n^2 d^2), no d^4 tensor.
    """
    d = m.dim
    diag = np.arange(d) * (d + 1)
    y = np.stack(m.kraus).reshape(len(m.kraus), d * d)  # row s holds K_s, entry (a, i) at a*d + i
    x = y[:, diag].copy()
    y[:, diag] = 0.0
    gx, gy = np.conj(x) @ x.T, np.conj(y) @ y.T
    residual = np.sqrt(max(2.0 * float(np.real(np.sum(gx * gy.T))) + frobenius(gy) ** 2, 0.0))
    if residual > tol.abs_eps * d:
        return None
    try:
        return SchurMatrix(np.einsum("si,sj->ij", x, np.conj(x)), tol)
    except ValueError:
        return None


def schur_map(a, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Diagonal Kraus representation of the entrywise-multiplication map for A."""
    sm = a if isinstance(a, SchurMatrix) else SchurMatrix(as_matrix(a), tol)
    w, v = hermitian_eigen(sm.matrix, tol)
    keep = w > max(float(w[-1]), 0.0) * 1e-15 + 1e-15
    ops = [np.diag(np.sqrt(w[k]) * v[:, k]) for k in np.flatnonzero(keep)]
    if not ops:
        ops = [np.zeros((sm.dim, sm.dim), dtype=complex)]
    return KrausMap(ops, tol)


def transform_representation(m: KrausMap, v, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Re-mix the Kraus list by a partial isometry: L_i = sum_j V_ij K_j.

    V must be a partial isometry whose action leaves the channel unchanged
    (V^dag V restricted to the span of the Kraus operators is the identity);
    the output is checked to have the same Choi matrix and a ValueError is
    raised otherwise.
    """
    vm = as_matrix(v)
    n = len(m.kraus)
    if vm.shape[1] != n:
        raise ValueError(f"mixing matrix must have {n} columns, got {vm.shape[1]}")
    sing = np.linalg.svd(vm, compute_uv=False)
    if np.any(np.minimum(np.abs(sing), np.abs(sing - 1.0)) > tol.abs_eps * 10.0):
        raise ValueError("mixing matrix is not a partial isometry (singular values not 0/1)")
    ops = [sum(vm[i, j] * m.kraus[j] for j in range(n)) for i in range(vm.shape[0])]
    out = KrausMap(ops, tol)
    if frobenius(choi_matrix(out) - choi_matrix(m)) > CHANNEL_EQ_FACTOR * m.dim:
        raise ValueError("partial isometry does not preserve the channel")
    return out


def minimal_representation(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Kraus representation with the minimum number of operators (Choi rank)."""
    d = m.dim
    c = choi_matrix(m)
    w, v = hermitian_eigen(c, tol)
    keep = np.flatnonzero(w > 1e-9 * max(float(w[-1]), 0.0))
    ops = [np.sqrt(w[k]) * v[:, k].reshape(d, d).T for k in keep]
    if not ops:
        ops = [np.zeros((d, d), dtype=complex)]
    return KrausMap(ops, tol)


def permutation_unitary(p: Permutation) -> np.ndarray:
    u = np.zeros((p.dim, p.dim), dtype=complex)
    for i, target in enumerate(p.mapping):
        u[target, i] = 1.0
    return u


def diagonal_unitary(phases) -> np.ndarray:
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 1:
        raise ValueError("phases must be a 1-d array")
    return np.diag(np.exp(1j * ph))


def tensor_channels(a: KrausMap, b: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Product map acting on the tensor product space."""
    ops = [np.kron(ka, kb) for ka, kb in itertools.product(a.kraus, b.kraus)]
    return KrausMap(ops, tol)


def identity_channel(d: int) -> KrausMap:
    return KrausMap([np.eye(d, dtype=complex)])


def dephasing_channel(d: int) -> KrausMap:
    """Full dephasing: keeps the diagonal, kills every off-diagonal entry."""
    ops = []
    for i in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    return KrausMap(ops)
