"""Search-based oracles used to cross-check the closed-form deciders.

Every routine here reaches its answer by constraint satisfaction or direct
sampling, never by evaluating the formula it is meant to validate. Searches
are one-sided: a returned witness is verified before it is handed back,
while an exhausted budget means undecided, not impossible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ROUNDOFF, ROUNDOFF_SUM, Tolerance, dagger, von_neumann_entropy
from .states import DensityMatrix, PureState, coherence_set
from .channels import CompletenessClass, KrausMap, apply, completeness_class
from .classify import classify_channel

__all__ = [
    "SearchBudget",
    "FeasibilityResult",
    "psd_complete",
    "search_sgi_probability",
    "monte_carlo_protocol",
    "search_cr",
    "search_fi_map",
]


@dataclass(frozen=True)
class SearchBudget:
    max_iterations: int = 10000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


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

    Cost: the k = 1 probe and 30 bisection probes, each one array expression
    for the matrix and at most one eigvalsh. Every entry is pinned, so no
    completion iterates.
    """
    if psi.dim != phi.dim:
        raise ValueError("states must share a dimension")
    sp = np.abs(psi.amplitudes) > tol.abs_eps
    tp = np.abs(phi.amplitudes) > tol.abs_eps
    if np.any(tp & ~sp):
        return 0.0
    phi_s, psi_s = phi.amplitudes[sp], psi.amplitudes[sp]
    phi_c = np.conj(phi_s)[None, :]
    den = psi_s[:, None] * np.conj(psi_s)[None, :]

    def feasible(k: float) -> bool:
        # the multiplier matrix k phi_i conj(phi_j) / (psi_i conj(psi_j)) on the source support; it is
        # zero elsewhere, and zero rows and columns change neither the diagonal bound nor the PSD rule
        a = (k * phi_s)[:, None] * phi_c / den
        if float(a.diagonal().real.max()) > 1.0 + ROUNDOFF_SUM:
            return False
        # a is rank 1 and Hermitian to a few ulps with diagonal at most 1, so |a_ij|^2 = a_ii a_jj <= 1
        # and psd_complete's Hermitian-gap check cannot fire: only its PSD rule is applied
        return _pinned_psd(a, tol).feasible

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


def monte_carlo_protocol(
    m: KrausMap,
    rho: DensityMatrix,
    trials: int,
    seed: int = 0,
    success_branches: tuple[int, ...] = (0,),
) -> tuple[float, np.ndarray]:
    """Sample branch outcomes of a trace non-increasing map on a state.

    Branch s fires with probability tr(K_s rho K_s^dag); any leftover weight
    is a failure outcome recorded in the final count slot. Returns the
    empirical frequency of the designated success branches and the full
    count vector (one slot per branch plus the failure slot). The success
    branches must be distinct operator indices in range(len(m.kraus)).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = len(m.kraus)
    in_range = all(isinstance(b, (int, np.integer)) and 0 <= b < n for b in success_branches)
    if not in_range or len(set(success_branches)) != len(success_branches):
        raise ValueError(f"success_branches must be distinct operator indices in range({n})")
    probs = []
    for k in m.kraus:
        out = k @ rho.matrix @ dagger(k)
        probs.append(max(float(np.real(np.trace(out))), 0.0))
    p_fail = 1.0 - sum(probs)
    if p_fail < ROUNDOFF_SUM:
        p_fail = 0.0
    pvals = np.array(probs + [p_fail], dtype=float)
    pvals = pvals / float(np.sum(pvals))
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, pvals)
    hits = int(sum(counts[b] for b in success_branches))
    return hits / trials, counts


def _diag_relent(neg_entropy: float, p0: float, p1: float, q: float) -> float:
    val = neg_entropy
    if p0 > 0.0:
        val -= p0 * np.log2(q)
    if p1 > 0.0:
        val -= p1 * np.log2(1.0 - q)
    return float(val)


def search_cr(rho: DensityMatrix, steps: int = 1000) -> float:
    """Distance to the incoherent states found by direct minimization (qubits only).

    Minimizes the relative entropy to diag(q, 1-q) over q with a grid scan
    refined by golden-section; no entropy-difference shortcut is used.
    """
    if rho.dim != 2:
        raise ValueError("grid minimization is implemented for qubit states only")
    neg_entropy = -von_neumann_entropy(rho.matrix, rho.tol)
    p0 = max(float(np.real(rho.matrix[0, 0])), 0.0)
    p1 = max(float(np.real(rho.matrix[1, 1])), 0.0)
    qs = np.arange(1, steps) / steps
    vals = [_diag_relent(neg_entropy, p0, p1, q) for q in qs]
    best = int(np.argmin(vals))
    lo = qs[max(best - 1, 0)] if best > 0 else ROUNDOFF
    hi = qs[min(best + 1, steps - 2)] if best < steps - 2 else 1.0 - ROUNDOFF
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _diag_relent(neg_entropy, p0, p1, c)
    fd = _diag_relent(neg_entropy, p0, p1, d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _diag_relent(neg_entropy, p0, p1, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _diag_relent(neg_entropy, p0, p1, d)
    candidates = [vals[best], fc, fd]
    return max(float(min(candidates)), 0.0)


def _unit_frame(x: np.ndarray) -> np.ndarray:
    # unitary whose first column is the unit vector x
    return np.array([[x[0], -np.conj(x[1])], [x[1], np.conj(x[0])]], dtype=complex)


def search_fi_map(
    psi: PureState, phi: PureState, budget: SearchBudget = SearchBudget(), tol: Tolerance = DEFAULT_TOL
) -> KrausMap | None:
    """Search for a two-branch fully incoherent channel taking psi to phi.

    Test oracle only: convert.fi_deterministic_pure decides these
    conversions exactly, and the tests check that it says possible wherever
    this search finds a witness.

    Scope: coherence rank of phi at least 2 and strictly below that of psi,
    dimension at most 4. Enumerates the assignments of source labels to
    target labels (at most two per target, forced by trace preservation),
    keeps those whose population sums match the target populations, and
    solves each surviving assignment with a random branch vector. A witness
    is verified: fully incoherent, trace preserving, output fidelity at
    least 1 - 10 tol.abs_eps. Returns None when the budget is exhausted.
    """
    if psi.dim != phi.dim:
        raise ValueError("states must share a dimension")
    d = psi.dim
    if d > 4:
        raise ValueError("assignment enumeration is limited to dimension <= 4")
    src = list(coherence_set(psi, tol).members)
    tgt = list(coherence_set(phi, tol).members)
    if len(tgt) < 2 or len(tgt) >= len(src):
        raise ValueError("search requires 2 <= target rank < source rank")
    psq = np.abs(psi.amplitudes) ** 2
    tsq = np.abs(phi.amplitudes) ** 2
    feas = []
    for assign in itertools.product(tgt, repeat=len(src)):
        fibers = Counter(assign)
        if any(n > 2 for n in fibers.values()):
            continue
        if set(assign) != set(tgt):
            continue
        ok = True
        for r in tgt:
            total = sum(psq[j] for j, a in zip(src, assign) if a == r)
            if not tol.close(abs(total - tsq[r])):
                ok = False
                break
        if ok:
            feas.append(assign)
    if not feas:
        return None
    rng = np.random.default_rng(budget.seed)
    zero_cols = [j for j in range(d) if j not in src]
    for it in range(budget.max_iterations):
        assign = feas[it % len(feas)]
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = raw / np.linalg.norm(raw)
        ops = [np.zeros((d, d), dtype=complex) for _ in range(2)]
        occupants: dict[int, list[np.ndarray]] = {r: [] for r in range(d)}
        ok = True
        for r in tgt:
            fiber = [j for j, a in zip(src, assign) if a == r]
            t = phi.amplitudes[r] * c
            if len(fiber) == 1:
                j = fiber[0]
                v = t / psi.amplitudes[j]
                nv = float(np.linalg.norm(v))
                if abs(nv - 1.0) > tol.abs_eps * 10:
                    ok = False
                    break
                v = v / nv
                cols = [(j, v)]
            else:
                j1, j2 = fiber
                p = np.array([psi.amplitudes[j1], psi.amplitudes[j2]])
                np_ = float(np.linalg.norm(p))
                if abs(np_ - abs(phi.amplitudes[r])) > tol.abs_eps * 10:
                    ok = False
                    break
                gamma = rng.uniform(0.0, 2.0 * np.pi)
                frame = (
                    _unit_frame(t / np.linalg.norm(t))
                    @ np.diag([1.0, np.exp(1j * gamma)])
                    @ dagger(_unit_frame(p / np_))
                )
                cols = [(j1, frame[:, 0]), (j2, frame[:, 1])]
            for j, v in cols:
                ops[0][r, j] = v[0]
                ops[1][r, j] = v[1]
                occupants[r].append(v)
        if not ok:
            continue
        for j in zero_cols:
            placed = False
            for r in range(d):
                if len(occupants[r]) == 0:
                    v = np.array([1.0, 0.0], dtype=complex)
                elif len(occupants[r]) == 1:
                    u = occupants[r][0]
                    v = np.array([-np.conj(u[1]), np.conj(u[0])], dtype=complex)
                else:
                    continue
                ops[0][r, j] = v[0]
                ops[1][r, j] = v[1]
                occupants[r].append(v)
                placed = True
                break
            if not placed:
                ok = False
                break
        if not ok:
            continue
        try:
            candidate = KrausMap(ops, tol)
        except ValueError:
            continue
        if completeness_class(candidate, tol) is not CompletenessClass.TRACE_PRESERVING:
            continue
        if not classify_channel(candidate, tol=tol).fi:
            continue
        out, prob = apply(candidate, psi.density())
        fid = float(np.real(np.conj(phi.amplitudes) @ out @ phi.amplitudes))
        if prob < 1.0 - tol.abs_eps or fid < 1.0 - tol.abs_eps * 10:
            continue
        return candidate
    return None
