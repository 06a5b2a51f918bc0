"""Brute-force oracles the tests check cohkit's deciders against.

Every routine here reaches its answer by constraint satisfaction or direct
sampling, never by evaluating the formula it is meant to validate. Searches
are one-sided: a returned witness is verified before it is handed back,
while an exhausted budget means undecided, not impossible. `dense_peel` and
`direct_tio_norm` are reference implementations instead: the greedy peel of
`mixed_unitary_decompose` on whole d x d remainders, and the tio commutator
as the L x L matrix over a list's L live entries. So are the entropies, the
trace norm and majorization at the end, which the tests measure cohkit's
answers with.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from cohkit import classify
from cohkit.channels import CompletenessClass, KrausMap, apply, completeness_class
from cohkit.classify import BudgetExhaustedError, Hamiltonian, classify_channel
from cohkit.linalg import (
    DEFAULT_TOL,
    ROUNDOFF,
    ROUNDOFF_SUM,
    Tolerance,
    _require_square,
    as_matrix,
    dagger,
    hermitian_eigen,
)
from cohkit.oracle import SearchBudget
from cohkit.states import DensityMatrix, PureState


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
    psi: PureState,
    phi: PureState,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
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
    least 1 - 10 tol.eps. Returns None when the budget is exhausted.
    """
    if psi.dim != phi.dim:
        raise ValueError("states must share a dimension")
    d = psi.dim
    if d > 4:
        raise ValueError("assignment enumeration is limited to dimension <= 4")
    src = np.flatnonzero(np.abs(psi.amplitudes) > tol.eps).tolist()
    tgt = np.flatnonzero(np.abs(phi.amplitudes) > tol.eps).tolist()
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
    rng = np.random.default_rng(seed)
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
                if abs(nv - 1.0) > tol.eps * 10:
                    ok = False
                    break
                v = v / nv
                cols = [(j, v)]
            else:
                j1, j2 = fiber
                p = np.array([psi.amplitudes[j1], psi.amplitudes[j2]])
                np_ = float(np.linalg.norm(p))
                if abs(np_ - abs(phi.amplitudes[r])) > tol.eps * 10:
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
        if prob < 1.0 - tol.eps or fid < 1.0 - tol.eps * 10:
            continue
        return candidate
    return None


def dense_peel(a: np.ndarray, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, np.ndarray]]:
    """The greedy peel of mixed_unitary_decompose on a unit-diagonal A, with dense remainders.

    Each step forms the d x d remainder (R - t u u^dag) / (1 - t), symmetrises it,
    resets its diagonal to 1 and eigendecomposes it, where the package carries the
    remainder as its kept eigenpairs. The unimodular search is the package's, fed the
    kept eigenpairs, so one seed draws the same restarts on both sides. Returns
    (weight, u) pairs; raises BudgetExhaustedError where the search finds nothing.
    """
    d = a.shape[0]
    w, v = hermitian_eigen(a, tol)
    cut = tol.rank_cut(float(w[-1]))
    rng = np.random.default_rng(seed)
    terms: list[tuple[float, np.ndarray]] = []
    remaining = 1.0
    for _ in range(d):
        keep = w > tol.rank_cut(float(w[-1]))
        if np.sum(keep) <= 1:
            return terms + [(remaining, v[:, -1] / np.abs(v[:, -1]))]
        basis, x = classify._phased_factor(w[keep], v[:, keep], int(np.sum(keep)), tol)
        u = classify._unimodular_in_range(basis, x, classify._null_direction(x, rng, tol), rng, tol)
        if u is None:
            raise BudgetExhaustedError("no unimodular direction found in the range of the remainder")
        t = 1.0 / float(np.sum(np.abs(dagger(v[:, keep]) @ u) ** 2 / w[keep]))
        if remaining * (1.0 - t) * d <= cut:
            return terms + [(remaining, u)]
        terms.append((remaining * t, u))
        a = (a - t * np.outer(u, np.conj(u))) / (1.0 - t)
        a = (a + dagger(a)) / 2.0
        np.fill_diagonal(a, 1.0)
        remaining *= 1.0 - t
        w, v = hermitian_eigen(a, tol)
    raise BudgetExhaustedError("the remainder did not reach rank 1 within d peeling steps")


def direct_tio_norm(m: KrausMap, h: Hamiltonian) -> float:
    """||(K^T conj K) o (delta_u - delta_v)||_F, the commutator of the map with time translations.

    u = (a, i) and v run over the L entries live in some operator, delta_(a,i) = E_i - E_a,
    and K is the n x L matrix of the operators' live entries: an L x L array, d^2 x d^2 for a
    dense list. classify_channel holds tio iff this is at most eps * d^2.
    """
    d = m.dim
    flat = np.flatnonzero(m.kraus.any(axis=0))
    k = m.kraus.reshape(len(m.kraus), d * d)[:, flat]
    e = np.asarray(h.energies, dtype=float)
    delta = (e[None, :] - e[:, None]).reshape(-1)[flat]
    return float(np.linalg.norm((k.T @ np.conj(k)) * (delta[:, None] - delta[None, :])))


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input this is the sum of |eigenvalues|."""
    a = _require_square(as_matrix(m))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def _state_spectrum(w: np.ndarray, tol: Tolerance) -> np.ndarray:
    # a state's ascending eigenvalues w, checked PSD and of unit trace, clipped at 0
    if not tol.psd(w):
        raise ValueError("matrix is not positive semidefinite within tolerance")
    if not tol.close(abs(float(np.sum(w)) - 1.0), w.size):
        raise ValueError("matrix does not have unit trace within tolerance")
    return np.clip(w, 0.0, None)


def von_neumann_entropy(rho, tol: Tolerance = DEFAULT_TOL) -> float:
    """Von Neumann entropy in bits of a unit-trace PSD matrix."""
    w = _state_spectrum(hermitian_eigen(rho, tol)[0], tol)
    p = w[w > 0.0]
    return float(-np.sum(p * np.log2(p)))


def relative_entropy(rho, sigma, tol: Tolerance = DEFAULT_TOL) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns +inf when the support of rho is not contained in the support of
    sigma (weight above tol.eps outside sigma's support).
    """
    wr = _state_spectrum(hermitian_eigen(rho, tol)[0], tol)
    ws, vs = hermitian_eigen(sigma, tol)
    _state_spectrum(ws, tol)
    a = as_matrix(rho)
    support_thr = tol.eps * max(float(ws[-1]), 1.0)
    kernel = vs[:, ws <= support_thr]
    if kernel.shape[1] > 0:
        leak = float(np.real(np.trace(dagger(kernel) @ a @ kernel)))
        if leak > tol.eps:
            return float("inf")
    p = wr[wr > 0.0]
    term_rho = float(np.sum(p * np.log2(p)))
    keep = ws > support_thr
    weights = np.real(np.einsum("ij,jk,ki->i", dagger(vs[:, keep]), a, vs[:, keep]))
    term_sigma = float(np.sum(weights * np.log2(ws[keep])))
    return term_rho - term_sigma


def majorizes(p, q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every partial sum of descending-sorted p dominates that of q."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("distributions must be 1-d arrays of equal length")
    for v in (a, b):
        if np.any(v < -ROUNDOFF_SUM):
            raise ValueError("distribution entries must be nonnegative")
        if abs(float(np.sum(v)) - 1.0) > tol.eps / 10:
            raise ValueError("distribution must sum to 1 within tol.eps / 10")
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(ca >= cb - tol.eps))
