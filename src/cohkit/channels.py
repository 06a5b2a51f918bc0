"""Quantum operations as stacked Kraus tensors.

A map is stored as one read-only (n, d, d) tensor t[s, a, i] = K_s[a, i], the
only Kraus format of the package; the representation is part of the object's
identity (two KrausMaps can describe the same channel with different operators; compare
channels through choi_matrix).

Schur-type maps (entrywise multiplication by a fixed PSD matrix with
diagonal in [0, 1]) get a dedicated wrapper, since they describe exactly the
maps whose Kraus operators can all be chosen diagonal.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, dagger, frobenius, hermitian_eigen
from .states import DensityMatrix

if TYPE_CHECKING:
    from .classify import ExtremalityWitness

__all__ = [
    "CompletenessClass",
    "KrausMap",
    "SchurMatrix",
    "completeness_class",
    "apply",
    "choi_matrix",
    "extract_schur_matrix",
    "schur_map",
    "minimal_representation",
    "diagonal_unitary",
]

class CompletenessClass(Enum):
    TRACE_PRESERVING = "trace_preserving"
    TRACE_NON_INCREASING = "trace_non_increasing"
    INVALID = "invalid"


def _kraus_tensor(kraus) -> np.ndarray:
    # a KrausMap's own tensor, else a complex C-ordered copy checked for shape and finiteness
    if isinstance(kraus, KrausMap):
        return kraus.kraus
    try:
        t = np.array(kraus, dtype=complex, order="C")
    except ValueError:  # operators of different shapes
        for k in kraus:
            as_matrix(k)
        raise ValueError("all Kraus operators must be square with equal dimension") from None
    if len(t) == 0:
        raise ValueError("Kraus list must be nonempty")
    if t.ndim != 3:
        raise ValueError(f"expected a matrix, got array with ndim={t.ndim - 1}")
    if not np.isfinite(t).all():
        raise ValueError("matrix entries must be finite")
    if t.shape[1] != t.shape[2]:
        raise ValueError("all Kraus operators must be square with equal dimension")
    if t.shape[1] == 0:
        raise ValueError("Kraus operators must act on a space of dimension >= 1")
    return t


def _one_per_line(mask: np.ndarray, axis: int) -> bool:
    # no line along axis holds two nonzero entries of mask (exact, no eps; any dtype): the nonzero
    # entries number as many as the lines that hold one iff no line holds two
    return bool(np.count_nonzero(mask) == np.count_nonzero(mask.any(axis=axis)))


def completeness_class(kraus, tol: Tolerance = DEFAULT_TOL) -> CompletenessClass:
    """Classify sum_i K_i^dag K_i as trace preserving, non-increasing, or invalid.

    kraus is a KrausMap, a list of d x d matrices or an (n, d, d) array. When no row of
    any operator holds two nonzero entries (diagonal operators, permutations times
    diagonals; a KrausMap's one_per_row), the sum is exactly diagonal with the column sums
    of |K_i|^2 on its diagonal, O(n d^2) with no d x d product. Otherwise it is one product
    Y^dag Y of the nd x d stack Y of the operators.
    """
    t = _kraus_tensor(kraus)
    d = t.shape[1]
    # one nonzero in each nonzero row: then (K^dag K)_ij = sum_a conj(K_ai) K_aj has no term at i != j
    one_per_row = kraus.one_per_row if isinstance(kraus, KrausMap) else _one_per_line(t, 2)
    if one_per_row:
        w = np.sort((t.real**2 + t.imag**2).sum(axis=(0, 1)))
        if tol.close(frobenius(w - 1.0), d):
            return CompletenessClass.TRACE_PRESERVING
    else:
        y = t.reshape(-1, d)  # row (s, a): row a of K_s, so that Y^dag Y = sum_s K_s^dag K_s
        s = dagger(y) @ y
        shifted = s.copy()  # s - I; s itself goes to the eigh below
        shifted.reshape(-1)[:: d + 1] -= 1.0
        if tol.close(frobenius(shifted), d):
            return CompletenessClass.TRACE_PRESERVING
        w, _ = hermitian_eigen(s, tol)
    if w[-1] <= tol.upper(1.0, float(max(-w[0], w[-1]))):  # max |w| of the ascending w
        return CompletenessClass.TRACE_NON_INCREASING
    return CompletenessClass.INVALID


@dataclass(frozen=True, eq=False)
class KrausMap:
    """A completely positive, trace non-increasing map given by Kraus operators.

    Built from a list of d x d matrices, an (n, d, d) array or a KrausMap, `kraus` is one
    read-only complex copy, kraus[s, a, i] = K_s[a, i], checked once; iterate or index it per operator.
    `completeness` is completeness_class of the map under its own tol, from that check. The list's
    exact support facts (no eps; -0.0 is zero) are pure functions of the tensor and are kept beside it.
    The check counts two of them: `nonzeros`, the number of nonzero entries, and `one_per_row`, whether
    no row of any operator holds two. Three more are computed on their first read and kept, so that a
    map that never asks (a conversion's witness) never pays for them: `live`, the read-only d x d mask
    of entries nonzero in some operator; `one_per_column`, whether no column of any operator holds two
    nonzero entries (an exactly incoherent list); and `diagonal`, whether no entry off the diagonal of
    `live` is set, the one test that sends a list down the Schur path. `_schur` holds
    extract_schur_matrix's answer per Tolerance (a SchurMatrix, whose A and eigenpairs are read-only,
    or None), so that A is computed once per map and Tolerance and shared by every later question.
    `==` and `hash` go by identity; compare channels through their Choi matrices.
    """

    kraus: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)
    completeness: CompletenessClass = field(init=False, repr=False)
    nonzeros: int = field(init=False, repr=False)
    one_per_row: bool = field(init=False, repr=False)
    _schur: dict[Tolerance, SchurMatrix | None] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        t = _kraus_tensor(self.kraus)
        t.flags.writeable = False
        object.__setattr__(self, "kraus", t)
        nonzeros = int(np.count_nonzero(t))
        object.__setattr__(self, "nonzeros", nonzeros)
        # the nonzero entries number as many as the rows that hold one iff no row holds two (_one_per_line)
        object.__setattr__(self, "one_per_row", bool(nonzeros == np.count_nonzero(t.any(axis=2))))
        completeness = completeness_class(self, self.tol)
        if completeness is CompletenessClass.INVALID:
            raise ValueError("Kraus operators exceed trace preservation (sum K^dag K > 1)")
        object.__setattr__(self, "completeness", completeness)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def live(self) -> np.ndarray:
        live = self.kraus.any(axis=0)  # live[a, i]: K_s[a, i] != 0 for some s
        live.flags.writeable = False
        return live

    @cached_property
    def one_per_column(self) -> bool:
        # one nonzero per operator column allows at most n d of them: a denser list is not counted
        n, d = self.kraus.shape[:2]
        return self.nonzeros <= n * d and bool(self.nonzeros == np.count_nonzero(self.kraus.any(axis=1)))

    @cached_property
    def diagonal(self) -> bool:
        return bool(np.count_nonzero(self.live) == np.count_nonzero(np.diagonal(self.live)))


@dataclass(frozen=True, eq=False)
class SchurMatrix:
    """PSD matrix with diagonal entries in [0, 1] (within eps * d) defining rho -> A * rho entrywise.

    Holds a read-only copy of A and, in `eigen`, the read-only eigenvalues
    (ascending) and eigenvector columns of A, so that callers never
    eigendecompose A again. A given matrix takes them from the eigh of its PSD
    check; extract_schur_matrix takes them from the SVD of the Kraus diagonals.
    `_extremality` holds gi_extremality's answer per Tolerance, a pure function of
    those eigenpairs and the tol, so that the n^2 x d rank test runs once per A and
    Tolerance. `==` and `hash` go by identity.
    """

    matrix: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False)
    eigen: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _factor: InitVar[np.ndarray | None] = field(default=None, kw_only=True)
    _extremality: dict[Tolerance, ExtremalityWitness] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, _factor: np.ndarray | None) -> None:
        a = as_matrix(self.matrix).copy()  # as_matrix hands back the caller's complex array itself
        if a.shape[0] != a.shape[1]:
            raise ValueError("Schur matrix must be square")
        if _factor is None:
            w, v = hermitian_eigen(a, self.tol)  # the test of is_psd, keeping the eigenpairs
        else:
            # A = X X^dag for the d x n factor X (extract_schur_matrix), PSD by construction: its
            # eigenpairs from one SVD of X, O(d^2 n), w = sigma^2 zero-padded to d and ascending,
            # with the columns of U in the same order; no Hermiticity pass
            u, sing, _ = np.linalg.svd(_factor, full_matrices=True)
            w = np.zeros(a.shape[0])
            w[len(w) - len(sing) :] = sing[::-1] ** 2
            v = np.ascontiguousarray(u[:, ::-1])
        if not self.tol.psd(w):
            raise ValueError("Schur matrix must be Hermitian PSD within tolerance")
        diag = np.real(np.diag(a))
        if not self.tol.close(max(-diag.min(), diag.max() - 1.0, 0.0), len(diag)):
            raise ValueError("Schur matrix diagonal must lie in [0, 1] within tolerance")
        for x in (a, w, v):
            x.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "eigen", (w, v))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def apply(m: KrausMap, rho) -> tuple[np.ndarray, float]:
    """Apply the map; returns the unnormalized output and its trace (probability)."""
    a = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    if a.shape != (m.dim, m.dim):
        raise ValueError(f"state of shape {a.shape} does not match map dimension {m.dim}")
    out = (m.kraus @ a @ dagger(m.kraus)).sum(axis=0)
    return out, float(np.real(np.trace(out)))


def choi_matrix(m: KrausMap) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|)."""
    vecs = m.kraus.transpose(0, 2, 1).reshape(len(m.kraus), -1)  # row s: vec(K_s), (i, a) -> i*d + a
    return np.einsum("si,sj->ij", vecs, np.conj(vecs))


def extract_schur_matrix(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> SchurMatrix | None:
    """Recover A with map(X) = A * X entrywise, or None when the map is not of that form.

    A = sum_s x_s x_s^dag over the Kraus diagonals x_s. The off-pattern residual
    (the norm of the basis-image entries A * X cannot produce, at most eps * d)
    is sqrt(2 tr(Gx Gy) + ||Gy||_F^2), Gx and Gy the n x n Gram matrices of the
    diagonal and off-diagonal parts of the operators: O(n^2 d^2) on the first call,
    no d^4 tensor. An exactly diagonal list (m.diagonal, read once per list) has
    residual 0 and skips it. The residual is at least
    ||Gy||_F >= (Gy)_ss >= |y_sk|^2 for every off-diagonal entry y_sk, so a list
    with one such entry above eps * d in squared modulus is answered None at
    O(n d^2), before either Gram product.
    A's eigenpairs come from one SVD of the d x n matrix of diagonals, O(d^2 n) on
    the first call; A is never eigendecomposed. The answer is kept on m per
    Tolerance, so that every later call with an equal tol (classify_channel,
    gi_extremality, mixed_unitary_decompose, complete_sgi) returns the same object.
    """
    if tol not in m._schur:
        d = m.dim
        i = np.arange(d)
        x = m.kraus[:, i, i]
        m._schur[tol] = _diagonal_schur(x, tol) if m.diagonal or _on_pattern(m.kraus, x, tol) else None
    return m._schur[tol]


def _on_pattern(t: np.ndarray, x: np.ndarray, tol: Tolerance) -> bool:
    # whether the off-pattern residual of the (n, d, d) Kraus tensor t with diagonals x is within eps * d
    n, d = x.shape
    y = t.reshape(n, d * d).copy()  # row s holds K_s, entry (a, i) at a*d + i
    y[:, np.arange(d) * (d + 1)] = 0.0
    if not tol.close(float(np.abs(y).max()) ** 2, d):
        return False
    gx, gy = np.conj(x) @ x.T, np.conj(y) @ y.T
    residual = np.sqrt(max(2.0 * float(np.real(np.sum(gx * gy.T))) + frobenius(gy) ** 2, 0.0))
    return tol.close(residual, d)


def _diagonal_schur(x: np.ndarray, tol: Tolerance) -> SchurMatrix | None:
    # A = sum_s x_s x_s^dag from the n x d Kraus diagonals x, or None when A fails SchurMatrix's
    # checks (a diagonal entry above 1)
    try:
        return SchurMatrix(np.einsum("si,sj->ij", x, np.conj(x)), tol, _factor=x.T)
    except ValueError:
        return None


def _minimal_diagonals(sm: SchurMatrix, tol: Tolerance) -> np.ndarray:
    # x[k] = sqrt(w_k) v_k, A's minimal diagonal Kraus operators, over the eigenpairs above tol.rank_cut of
    # the top: a relative cut, which keeps the round-off eigenvalues of a list padded beyond the rank out.
    # A = 0 (no eigenvalue above 0) has the single zero operator
    w, v = sm.eigen
    keep = w > tol.rank_cut(float(w[-1]))
    if not keep.any():
        if w[-1] > 0.0:
            raise ValueError(f"eps = {tol.eps} cuts away every eigenvalue of the Schur matrix")
        return np.zeros((1, sm.dim), dtype=complex)
    return (np.sqrt(w[keep]) * v[:, keep]).T


def schur_map(a, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Minimal diagonal Kraus representation of the entrywise-multiplication map for A.

    One operator sqrt(w_k) diag(v_k) per eigenpair of A above tol.rank_cut of its top eigenvalue (a
    single zero operator for A = 0), the operators gi_extremality tests; A's eigenpairs are the
    SchurMatrix's own. ValueError when eps >= 1 cuts away every eigenvalue of a nonzero A.
    """
    sm = a if isinstance(a, SchurMatrix) else SchurMatrix(as_matrix(a), tol)
    x = _minimal_diagonals(sm, tol)  # x[s]: diagonal of the s-th operator
    i = np.arange(sm.dim)
    ops = np.zeros((len(x), sm.dim, sm.dim), dtype=complex)
    ops[:, i, i] = x
    return KrausMap(ops, tol)


def minimal_representation(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Kraus representation with the minimum number of operators (Choi rank).

    G_st = tr(K_s^dag K_t) = V w V^dag has the Choi matrix's nonzero spectrum; L_k = sum_s V_sk K_s.
    """
    y = m.kraus.reshape(len(m.kraus), -1)
    w, v = hermitian_eigen(np.conj(y) @ y.T, tol)
    keep = w > tol.rank_cut(float(w[-1]))
    ops = np.tensordot(v[:, keep].T, m.kraus, axes=1)
    return KrausMap(ops if len(ops) else np.zeros((1, m.dim, m.dim), dtype=complex), tol)


def diagonal_unitary(phases) -> np.ndarray:
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 1:
        raise ValueError("phases must be a 1-d array")
    return np.diag(np.exp(1j * ph))

