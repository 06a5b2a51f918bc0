"""State-conversion deciders for Schur-type and fully incoherent channels.

Deterministic conversions under unit-diagonal Schur channels preserve the
populations in the reference basis, so the deciders hinge on the diagonal of
the source and target. Column j of every Kraus operator of a fully incoherent
channel lands in one row f(j), so those channels relabel and merge
populations: fi_deterministic_pure searches for such a label map when the
target's rank is lower, and at equal rank, like sfi_probability, pairs sorted
populations in O(d log d).

Verdicts are three-valued: possible is True, False, or None. None means only
that a bounded search (PSD completion, label-map backtracking) ran out of
budget, or that no witness of a pure-source GI conversion passed while no
bound rules one out; it is never a claim of impossibility.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, ROUNDOFF_SUM, Tolerance, dagger, frobenius
from .states import DensityMatrix, PureState, _eigen
from .channels import (
    CompletenessClass,
    KrausMap,
    SchurMatrix,
    diagonal_unitary,
    extract_schur_matrix,
    schur_map,
)
from .classify import BudgetExhaustedError, same_form
from . import oracle

__all__ = [
    "Reason",
    "ConversionVerdict",
    "SfiBound",
    "gi_deterministic_pure",
    "gi_pure_parent",
    "gi_deterministic",
    "sgi_optimal_probability",
    "complete_sgi",
    "sgi_mixed_to_pure",
    "reduce_joint",
    "fi_deterministic_pure",
    "sfi_probability",
]


class Reason(Enum):
    DIAGONAL_MISMATCH = "DiagonalMismatch"
    SUPPORT_VIOLATION = "SupportViolation"
    RANK_VIOLATION = "RankViolation"
    NOT_UNITARILY_EQUIVALENT = "NotUnitarilyEquivalent"
    NO_PURE_PROJECTION = "NoPureProjection"
    COMPLETION_INFEASIBLE = "CompletionInfeasible"


@dataclass
class ConversionVerdict:
    """Outcome of a conversion decision.

    possible: True / False / None (None = undecided within budget).
    probability: success probability of the offered map (1 for deterministic
    verdicts, 0 when impossible or undecided).
    map: witness map when possible, else None.
    reason: cause attached to negative or undecided outcomes.
    """

    possible: bool | None
    probability: float
    map: KrausMap | None
    reason: Reason | None


@dataclass
class SfiBound:
    """Permutation-optimized stochastic bound; exact when the closed form is tight."""

    lower_bound: float
    exact: bool
    map: KrausMap | None


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def _supports(psi: PureState, phi: PureState, tol: Tolerance) -> tuple[np.ndarray, ...]:
    # the moduli of psi's and phi's amplitudes and their masks above eps; ValueError, naming the state,
    # where a mask is empty, as it is for every state once eps >= 1 / sqrt(d)
    _check_dims(psi.dim, phi.dim)
    amp_s, amp_t = np.abs(psi.amplitudes), np.abs(phi.amplitudes)
    in_s, in_t = amp_s > tol.eps, amp_t > tol.eps
    for name, mask in (("source", in_s), ("target", in_t)):
        if not np.count_nonzero(mask):
            raise ValueError(f"the {name} state has no amplitude above eps = {tol.eps}")
    return amp_s, amp_t, in_s, in_t


def gi_deterministic_pure(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> ConversionVerdict:
    """Deterministic pure-to-pure conversion under unit-diagonal Schur channels.

    Possible iff |psi_i| = |phi_i| for every i; the witness is then the
    diagonal unitary matching the phases.
    """
    _check_dims(psi.dim, phi.dim)
    dev = float(np.max(np.abs(np.abs(psi.amplitudes) ** 2 - np.abs(phi.amplitudes) ** 2)))
    if not tol.close(dev):
        return ConversionVerdict(False, 0.0, None, Reason.NOT_UNITARILY_EQUIVALENT)
    support = np.abs(psi.amplitudes) > tol.eps
    phases = np.where(support, np.angle(phi.amplitudes) - np.angle(psi.amplitudes), 0.0)
    witness = KrausMap([diagonal_unitary(phases)], tol)
    return ConversionVerdict(True, 1.0, witness, None)


def _masked_ratio(num: np.ndarray, den: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    # the identity matrix with num / den at the pinned entries off the diagonal
    off = pinned & ~np.eye(len(pinned), dtype=bool)
    a = np.eye(len(pinned), dtype=complex)
    a[off] = num[off] / den[off]
    return a


def gi_pure_parent(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> tuple[PureState, KrausMap]:
    """Pure state with the same diagonal as rho, plus a Schur channel mapping it to rho.

    The channel's Schur matrix is the identity with rho_ij / sqrt(p_i p_j)
    wherever both populations exceed tol.eps."""
    diag = np.clip(rho.diagonal(), 0.0, None)
    total = float(np.sum(diag))
    psi = PureState(np.sqrt(diag / total).astype(complex), tol)
    support = diag > tol.eps
    a = _masked_ratio(rho.matrix, np.sqrt(np.outer(diag, diag)), np.outer(support, support))
    return psi, schur_map(SchurMatrix(a, tol), tol)


def _purity(rho: DensityMatrix, tol: Tolerance) -> tuple[bool, np.ndarray]:
    # from rho's stored eigenpairs, no eigh: is the top eigenvalue 1 within eps, and its eigenvector
    # times its root
    w, v = _eigen(rho, tol)
    top = float(w[-1])
    return tol.close(1.0 - top), v[:, -1] * np.sqrt(max(top, 0.0))


def _pure_source_witness(psi: np.ndarray, s: np.ndarray, tol: Tolerance) -> SchurMatrix | None:
    # gi_deterministic's three candidates in turn, the clip's eigh only where the first two fail: the
    # first that SchurMatrix accepts and that maps psi psi^dag to s within 10 eps
    support = (np.abs(psi) > tol.eps) & (s.diagonal().real > 0.0)
    pinned = np.outer(support, support)
    scale = np.sqrt(np.where(support, s.diagonal().real, 1.0)) * np.exp(1j * np.angle(psi))
    corr = _masked_ratio(s, np.outer(scale, np.conj(scale)), pinned)

    def candidates():
        yield corr
        yield _masked_ratio(s, np.outer(psi, np.conj(psi)), pinned)
        w, v = np.linalg.eigh(corr)
        a = (v * np.maximum(w, 0.0)) @ dagger(v)
        yield a / np.sqrt(np.outer(a.diagonal(), a.diagonal()).real)

    for a in candidates():
        try:
            schur = SchurMatrix(a, tol)
        except ValueError:
            continue
        if frobenius(a * np.outer(psi, np.conj(psi)) - s) <= tol.eps * 10:
            return schur
    return None


def gi_deterministic(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    budget: "oracle.SearchBudget | None" = None,
) -> ConversionVerdict:
    """Deterministic conversion rho -> sigma under unit-diagonal Schur channels.

    The diagonals must agree entrywise within tol.eps; both states are
    read through their Hermitian parts (m + m^dag)/2. A pure source psi (top
    eigenvalue 1 within tol.eps) converts in exact arithmetic. The
    witness's A, the identity off psi's support, is the first of three to
    map psi psi^dag to sigma within 10 tol.eps: sigma's correlation
    matrix with psi's phases taken off (free of the 1 / |psi_i| round-off of
    a ratio), the ratio sigma_ij / (psi_i conj(psi_j)) (for sigma_ii equal to
    |psi_i|^2 only within eps), and the correlation matrix clipped to
    PSD. If none does, the answer is False where sum_ij max(|sigma_ij| -
    |psi_i||psi_j|, 0)^2 > (10 tol.eps)^2, a bound no unit-diagonal A
    beats, and None otherwise. A mixed source cannot reach a pure target.
    Otherwise A_ij = sigma_ij / rho_ij is pinned where |rho_ij| > tol.eps,
    and a coherence of sigma above it elsewhere is a SupportViolation;
    oracle.psd_complete (default budget 5,000 iterations) fills the rest and
    stops on the PSD rule of SchurMatrix, so its completion is the witness's
    Schur matrix as it stands. No completion within the budget: possible=None.
    The purity tests read the states' stored eigenpairs (DensityMatrix.eigen)
    and eigendecompose neither state.
    """
    _check_dims(rho.dim, sigma.dim)
    if not tol.close(float(np.max(np.abs(rho.diagonal() - sigma.diagonal())))):
        return ConversionVerdict(False, 0.0, None, Reason.DIAGONAL_MISMATCH)
    # DensityMatrix bounds m - m^dag only by eps * d: Hermitian parts give Hermitian ratios
    s = (sigma.matrix + dagger(sigma.matrix)) / 2.0
    rho_pure, psi = _purity(rho, tol)
    if rho_pure:
        schur = _pure_source_witness(psi, s, tol)
        if schur is not None:
            return ConversionVerdict(True, 1.0, schur_map(schur, tol), None)
        # |A_ij| <= 1 for every unit-diagonal A, so no witness maps psi psi^dag closer to sigma than this
        gap = np.maximum(np.abs(s) - np.outer(np.abs(psi), np.abs(psi)), 0.0)
        possible = False if frobenius(gap) > tol.eps * 10 else None
        return ConversionVerdict(possible, 0.0, None, Reason.COMPLETION_INFEASIBLE)
    if _purity(sigma, tol)[0]:
        return ConversionVerdict(False, 0.0, None, Reason.RANK_VIOLATION)
    r = (rho.matrix + dagger(rho.matrix)) / 2.0
    pinned = (np.abs(r) > tol.eps) | np.eye(rho.dim, dtype=bool)
    if np.any(~pinned & (np.abs(s) > tol.eps)):
        return ConversionVerdict(False, 0.0, None, Reason.SUPPORT_VIOLATION)
    a = _masked_ratio(s, r, pinned)
    if not pinned.all():
        # the completion stops on the PSD rule of SchurMatrix, which therefore accepts it
        a = oracle.psd_complete(a, pinned, budget or oracle.SearchBudget(max_iterations=5000), tol).witness
        if a is None:
            return ConversionVerdict(None, 0.0, None, Reason.COMPLETION_INFEASIBLE)
    try:
        witness = schur_map(SchurMatrix(a, tol), tol)
    except ValueError:
        return ConversionVerdict(False, 0.0, None, Reason.COMPLETION_INFEASIBLE)
    return ConversionVerdict(True, 1.0, witness, None)


def _one_branch(psi: PureState, phi: PureState, tp: np.ndarray, sigma: np.ndarray, tol: Tolerance) -> KrausMap:
    # the single operator K[t, sigma(t)] = phi_t / psi_sigma(t) on phi's support tp, scaled to max |K| = 1
    d = psi.dim
    v = np.zeros(d, dtype=complex)
    v[tp] = phi.amplitudes[tp] / psi.amplitudes[sigma[tp]]
    k = np.zeros((1, d, d), dtype=complex)
    k[0, np.arange(d), sigma] = v / np.abs(v).max()
    return KrausMap(k, tol)


def sgi_optimal_probability(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> ConversionVerdict:
    """Largest success probability for psi -> phi with a single diagonal Kraus branch.

    Requires the target's support to sit inside the source's; the optimum is
    min over the target support of |psi_i|^2 / |phi_i|^2 and is achieved by
    one diagonal operator K_tt = phi_t / psi_t on that support, max |K| = 1.
    """
    amp_s, amp_t, in_s, tp = _supports(psi, phi, tol)
    if (tp & ~in_s).any():
        return ConversionVerdict(False, 0.0, None, Reason.SUPPORT_VIOLATION)
    prob = float(min((amp_s[tp] ** 2 / amp_t[tp] ** 2).min(), 1.0))
    return ConversionVerdict(True, prob, _one_branch(psi, phi, tp, np.arange(psi.dim), tol), None)


def complete_sgi(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Extend a sub-normalized Schur-type map to a trace-preserving one.

    Appends basis-diagonal failure branches sqrt(1 - A_ii) |i><i|; the
    completed map is a unit-diagonal Schur channel.
    """
    sm = extract_schur_matrix(m, tol)
    if sm is None:
        raise ValueError("map does not act by entrywise multiplication")
    leftover = 1.0 - np.clip(np.real(np.diag(sm.matrix)), 0.0, 1.0)
    rows = np.flatnonzero(leftover > ROUNDOFF_SUM)
    extra = np.zeros((rows.size, m.dim, m.dim), dtype=complex)
    extra[np.arange(rows.size), rows, rows] = np.sqrt(leftover[rows])
    return KrausMap(np.concatenate((m.kraus, extra)), tol)


def sgi_mixed_to_pure(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL
) -> tuple[ConversionVerdict, tuple[int, int] | None]:
    """Stochastic extraction of a coherent pure state from a mixed state.

    Succeeds iff projecting onto some pair of labels i < j leaves a rank-1
    block (tol.rank_cut) with |rho_ij| > tol.eps. One batched eigh covers
    all d(d-1)/2 blocks; the first such pair in row order is returned, its
    projector the witness and the block's trace the branch probability.
    """
    if _purity(rho, tol)[0]:
        raise ValueError("source state is already pure")
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    if frobenius(off) <= tol.eps:
        raise ValueError("source state is incoherent")
    d = rho.dim
    pairs = np.column_stack(np.triu_indices(d, 1))
    blocks = rho.matrix[pairs[:, :, None], pairs[:, None, :]]
    # rho passed its Hermiticity check at eps * d; a block is not checked again at eps * 2
    w = np.linalg.eigh((blocks + dagger(blocks)) / 2.0)[0]
    hits = np.flatnonzero((np.abs(blocks[:, 0, 1]) > tol.eps) & (w[:, 0] <= tol.rank_cut(w[:, -1])))
    if hits.size == 0:
        return ConversionVerdict(False, 0.0, None, Reason.NO_PURE_PROJECTION), None
    i, j = pairs[hits[0]].tolist()
    proj = np.zeros((d, d), dtype=complex)
    proj[[i, j], [i, j]] = 1.0
    prob = float(np.real(rho.matrix[i, i] + rho.matrix[j, j]))
    return ConversionVerdict(True, prob, KrausMap([proj], tol), None), (i, j)


def reduce_joint(a_joint: SchurMatrix, sigma: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> SchurMatrix:
    """Effective Schur matrix on the first factor when the second is fixed to sigma.

    For a unit-diagonal Schur channel on a d*d product space applied to
    rho (x) sigma, tracing out the second factor acts on rho as the Schur
    matrix Ã_ij = sum_k sigma_kk A_(ik),(jk)."""
    d = sigma.dim
    if a_joint.dim != d * d:
        raise ValueError("joint matrix dimension must be the square of the state dimension")
    if float(np.max(np.abs(np.real(np.diag(a_joint.matrix)) - 1.0))) > tol.eps * d * d:
        raise ValueError("joint matrix must have unit diagonal")
    a4 = a_joint.matrix.reshape(d, d, d, d)
    reduced = np.einsum("ikjk,k->ij", a4, sigma.diagonal().astype(complex))
    reduced = (reduced + dagger(reduced)) / 2.0
    np.fill_diagonal(reduced, 1.0)
    return SchurMatrix(reduced, tol)


def _label_map(items: list[float], caps: list[float], limit: int, eps: float) -> list[int] | None:
    # target label per source population (items descending) such that every
    # label is used and its populations sum to its cap within eps, or None;
    # BudgetExhaustedError after limit placements. Bin completion: the largest
    # unplaced population opens a label, smaller ones complete it; one
    # candidate per distinct capacity or population is tried at each level.
    # Depth-first over an explicit stack, one level per placement, so that
    # thousands of labels do not reach the interpreter's recursion limit.
    assigned = [-1] * len(items)
    nodes = 0

    def dead(cap: float) -> bool:
        # short of its population, but every source population overfills it
        return eps < cap < items[-1] - eps

    def moves(b: int, start: int):
        # the (population, label, key) moves of a level that completes label b, or opens one if
        # b < 0, generated lazily (each level tries them from the state it was entered in); None
        # when every population is placed and every label used
        if b >= 0:
            return ((i, b, items[i]) for i in range(start, len(items)) if assigned[i] < 0)
        used = set(assigned) - {-1}
        if assigned.count(-1) < len(caps) - len(used):
            return iter(())
        if -1 not in assigned:
            return None
        k = assigned.index(-1)
        return ((k, c, (caps[c], c in used)) for c in range(len(caps)))

    if any(dead(c) for c in caps):
        return None
    first = moves(-1, 0)
    if first is None:
        return assigned
    # each level: its moves left, the keys it tried, and the placement that opened it
    stack = [(first, set(), None)]
    while stack:
        level, tried, _ = stack[-1]
        for i, c, key in level:
            if items[i] > caps[c] + eps or key in tried:
                continue
            tried.add(key)
            nodes += 1
            if nodes > limit:
                raise BudgetExhaustedError
            cap = caps[c]
            if dead(cap - items[i]):
                continue
            caps[c], assigned[i] = cap - items[i], c
            child = moves(c if caps[c] > eps else -1, i + 1)
            if child is None:
                return assigned
            stack.append((child, set(), (i, c, cap)))
            break
        else:  # no move left: take back the placement that opened this level
            placed = stack.pop()[2]
            if placed is not None:
                i, c, cap = placed
                caps[c], assigned[i] = cap, -1
    return None


def _sorted_pairing(psq: np.ndarray, tsq: np.ndarray) -> np.ndarray:
    # sigma[i]: the source index paired with target index i, both populations taken in descending order
    sigma = np.empty(tsq.size, dtype=int)
    sigma[np.argsort(-tsq, kind="stable")] = np.argsort(-psq, kind="stable")
    return sigma


def _frame(u: np.ndarray) -> np.ndarray:
    # a unitary with first column the unit vector u: -g H, H the Householder reflection through
    # v = u + g e_0 (g = u_0 / |u_0|, 1 if u_0 = 0), which sends u to -g e_0; v^dag v = 2 (1 + |u_0|) >= 2.
    # A subnormal |u_0| also takes g = 1, since dividing by it overflows; the frame then errs by |u_0|
    a = abs(u[0])
    g = u[0] / a if a >= sys.float_info.min else 1.0
    v = u.astype(complex)
    v[0] += g
    return -g * (np.eye(u.size) - v[:, None] * (v.conj() / (1.0 + a)))


def fi_deterministic_pure(
    psi: PureState,
    phi: PureState,
    tol: Tolerance = DEFAULT_TOL,
    budget: "oracle.SearchBudget | None" = None,
) -> ConversionVerdict:
    """Deterministic pure-to-pure conversion under fully incoherent channels.

    Possible iff some label map f from the source support onto the target
    support coarse-grains the populations: |phi_r|^2 = sum over f(j) = r of
    |psi_j|^2 within tol.eps. At equal coherence rank f pairs the sorted
    populations, O(d log d) with no search. Otherwise f is found by backtracking,
    each placement counting against budget.max_iterations: exponential in d at
    worst, at most 64 placements at d = 7 and 2,048 at d = 12 on random pairs.
    False carries a reason; None means only that the budget ran out.

    The witness has as many branches as the largest fibre F -> r; F's columns
    are those of phase(phi_r) Q^dag, Q = -g (I - 2 v v^dag / v^dag v) the unitary
    with first column u = psi_F / |psi_F|, v = u + g e_0, g = u_0 / |u_0|. It
    must be one-form, trace preserving and of fidelity 1 - 10 tol.eps (or
    what f promises, if less), else ArithmeticError.
    """
    d = psi.dim
    amp_s, amp_t, in_s, in_t = _supports(psi, phi, tol)
    src, tgt = in_s.nonzero()[0], in_t.nonzero()[0]
    if tgt.size > src.size:
        return ConversionVerdict(False, 0.0, None, Reason.RANK_VIOLATION)
    psq, tsq = amp_s[src] ** 2, amp_t[tgt] ** 2
    if tgt.size == src.size:
        # one population per label: the sorted pairing under the two comparisons _label_map makes
        pos, labels = _sorted_pairing(psq, tsq), tgt
        if not ((psq[pos] <= tsq + tol.eps).all() and (tsq - psq[pos] <= tol.eps).all()):
            return ConversionVerdict(False, 0.0, None, Reason.NOT_UNITARILY_EQUIVALENT)
    else:
        pos = np.argsort(-amp_s[src], kind="stable")
        limit = (budget or oracle.SearchBudget()).max_iterations
        try:
            f = _label_map(psq[pos].tolist(), tsq.tolist(), limit, tol.eps)
        except BudgetExhaustedError:
            return ConversionVerdict(None, 0.0, None, None)
        if f is None:
            return ConversionVerdict(False, 0.0, None, Reason.DIAGONAL_MISMATCH)
        labels = tgt[f]
    sources = src[pos]
    sizes = np.bincount(labels, minlength=d)
    weights = np.bincount(labels, weights=psq[pos], minlength=d)
    ops = np.zeros((sizes.max(), d, d), dtype=complex)
    one = sizes[labels] == 1
    j, r = sources[one], labels[one]
    ops[0, r, j] = phi.amplitudes[r] / amp_t[r] * np.conj(psi.amplitudes[j]) / amp_s[j]
    for r in (sizes > 1).nonzero()[0]:
        fibre = sources[labels == r]
        frame = _frame(psi.amplitudes[fibre] / np.sqrt(weights[r]))
        ops[: fibre.size, r, fibre] = phi.amplitudes[r] / amp_t[r] * dagger(frame)
    # labels outside the source support go to unused rows, one each, as e_0
    ops[0, (~in_t).nonzero()[0][: d - src.size], (~in_s).nonzero()[0]] = 1.0
    # populations below eps may trade labels, so f itself may promise less
    # than 1 - 10 eps: sum over r of |phi_r| |psi_F| squared
    promised = float(amp_t @ np.sqrt(weights)) ** 2
    overlap = (ops @ psi.amplitudes) @ np.conj(phi.amplitudes)
    try:
        witness = KrausMap(ops, tol)  # its completeness class is the one check of sum K^dag K
    except ValueError:  # sum K^dag K > 1
        witness = None
    if (
        witness is None
        or not same_form(witness, tol)
        or witness.completeness is not CompletenessClass.TRACE_PRESERVING
        or float(np.sum(np.abs(overlap) ** 2)) < min(1.0 - tol.eps * 10, promised - tol.eps / 10)
    ):
        raise ArithmeticError("rounding broke the fully incoherent witness")
    return ConversionVerdict(True, 1.0, witness, None)


def sfi_probability(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> SfiBound:
    """Relabeling-optimized stochastic conversion bound for fully incoherent maps.

    max over relabelings sigma of min over the target support of
    |psi_sigma(i)|^2 / |phi_i|^2, attained by pairing source and target
    populations in the same sorted order: uncrossing two pairs never lowers
    the smaller ratio, and correctly rounded division is monotone, so the
    float equals that of a scan over all d! relabelings. O(d log d), no
    dimension cap. Exact when the coherence ranks agree; the optimal map is
    then returned, the branch of sgi_optimal_probability taken along sigma.
    """
    amp_s, amp_t, in_s, tp = _supports(psi, phi, tol)
    exact = bool(np.count_nonzero(in_s) == np.count_nonzero(tp))
    psq, tsq = amp_s**2, amp_t**2
    sigma = _sorted_pairing(psq, tsq)
    worst = np.min(psq[sigma[tp]] / tsq[tp])
    bound = float(min(max(worst, 0.0), 1.0))
    return SfiBound(lower_bound=bound, exact=exact, map=_one_branch(psi, phi, tp, sigma, tol) if exact else None)

