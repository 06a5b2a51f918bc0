"""PSD completion for the mixed-state GI decider, and the SGI probability search.

psd_complete fills the unpinned entries of a Schur matrix for
convert.gi_deterministic. search_sgi_probability bisects over pinned Schur
matrices to cross-check convert.sgi_optimal_probability. Searches are
one-sided: a returned witness is verified before it is handed back, while an
exhausted budget means undecided, not impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ROUNDOFF_SUM, Tolerance, dagger
from .states import PureState

__all__ = [
    "SearchBudget",
    "FeasibilityResult",
    "psd_complete",
    "search_sgi_probability",
]


@dataclass(frozen=True)
class SearchBudget:
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        # a bool is an int, but True is no budget of 1
        if not isinstance(self.max_iterations, (int, np.integer)) or isinstance(self.max_iterations, bool):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))


@dataclass
class FeasibilityResult:
    """Outcome of a feasibility search: a witness, or the residual it stalled at.

    iterations counts the projections onto the PSD cone that the search made: 0 for a fully
    pinned matrix, the budget's max_iterations when it ran out.
    """

    witness: np.ndarray | None
    residual: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def psd_complete(
    pinned: np.ndarray, mask: np.ndarray, budget: SearchBudget = SearchBudget(), tol: Tolerance = DEFAULT_TOL
) -> FeasibilityResult:
    """Complete the unpinned entries of a Hermitian matrix to make it PSD.

    mask marks the pinned entries; it must be symmetric and the pinned values
    Hermitian-consistent. Alternating projections between the PSD cone and
    the pinned affine slice; converged when the pinned iterate, which is
    exactly Hermitian, passes tol.psd, the rule of is_psd and SchurMatrix.
    """
    pinned = np.asarray(pinned, dtype=complex)
    mask = np.asarray(mask, dtype=bool)
    if pinned.shape != mask.shape or pinned.shape[0] != pinned.shape[1]:
        raise ValueError("pinned matrix and mask must be square with equal shape")
    if not np.array_equal(mask, mask.T):
        raise ValueError("mask must be symmetric")
    herm_gap = np.abs(pinned - np.conj(pinned.T))[mask & mask.T]
    if herm_gap.size and float(np.max(herm_gap)) > ROUNDOFF_SUM:
        raise ValueError("pinned values must be Hermitian-consistent")
    if mask.all():
        return _pinned_psd(pinned, tol)
    x = np.where(mask, pinned, 0.0)
    residual = np.inf
    for it in range(budget.max_iterations):
        h = (x + dagger(x)) / 2.0
        w, v = np.linalg.eigh(h)
        residual = max(0.0, -float(w[0]))
        if tol.psd(w):
            return FeasibilityResult(h, residual, it)
        y = (v * np.clip(w, 0.0, None)) @ dagger(v)
        x = np.where(mask, pinned, y)
    return FeasibilityResult(None, residual, budget.max_iterations)


def _pinned_psd(a: np.ndarray, tol: Tolerance) -> FeasibilityResult:
    # the verdict on a fully pinned matrix: tol.psd on the spectrum of its Hermitian part
    h = (a + dagger(a)) / 2.0
    w = np.linalg.eigvalsh(h)
    return FeasibilityResult(h if tol.psd(w) else None, max(0.0, -float(w[0])), 0)


def search_sgi_probability(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> float:
    """Best conversion probability found by bisecting over feasible Schur matrices.

    A success probability k is feasible when the multiplier matrix forced by
    k on the source support extends to a PSD matrix with diagonal at most 1.
    Returns 0 when the target needs amplitudes outside the source support.

    Cost: one eigvalsh per call, none on a support violation. The k = 1
    multiplier matrix M is formed once and its Hermitian part diagonalized
    once; each of the 31 probes (k = 1, then 30 halvings) applies the
    diagonal bound to k max diag M and the PSD rule to k w, since the
    spectrum of k M is k times that of M. Every entry is pinned, so no
    completion iterates.
    """
    if psi.dim != phi.dim:
        raise ValueError("states must share a dimension")
    sp = np.abs(psi.amplitudes) > tol.eps
    tp = np.abs(phi.amplitudes) > tol.eps
    if np.any(tp & ~sp):
        return 0.0
    phi_s, psi_s = phi.amplitudes[sp], psi.amplitudes[sp]
    # the multiplier matrix phi_i conj(phi_j) / (psi_i conj(psi_j)) on the source support; it is zero
    # elsewhere, and zero rows and columns change neither the diagonal bound nor the PSD rule
    m = phi_s[:, None] * np.conj(phi_s)[None, :] / (psi_s[:, None] * np.conj(psi_s)[None, :])
    top = float(m.diagonal().real.max())
    # M is rank 1 and Hermitian to a few ulps, so at a k that passes the diagonal bound
    # |k M_ij|^2 = k M_ii k M_jj <= 1 and psd_complete's Hermitian-gap check cannot fire: only its
    # PSD rule is applied, as _pinned_psd applies it
    w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)

    def feasible(k: float) -> bool:
        return k * top <= 1.0 + ROUNDOFF_SUM and tol.psd(k * w)

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
