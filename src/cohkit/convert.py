"""State-conversion deciders for Schur-type and fully incoherent channels.

Deterministic conversions under unit-diagonal Schur channels preserve the
populations in the reference basis, so the deciders hinge on the diagonal of
the source and target. Column j of every Kraus operator of a fully incoherent
channel lands in one row f(j), so those channels relabel and merge
populations: fi_deterministic_pure searches for such a label map, and
sfi_probability pairs sorted populations in O(d log d).

Verdicts are three-valued: possible is True, False, or None. None means only
that a bounded search (PSD completion, label-map backtracking) ran out of
budget; it is never a claim of impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, dagger, frobenius, hermitian_eigen, is_psd, partial_trace_second
from .states import DensityMatrix, PureState, coherence_set, plus_state
from .channels import (
    CompletenessClass,
    KrausMap,
    Permutation,
    SchurMatrix,
    apply,
    completeness_class,
    diagonal_unitary,
    permutation_unitary,
    schur_map,
)
from .classify import BudgetExhaustedError, same_form
from . import oracle

__all__ = [
    "Reason",
    "ConversionVerdict",
    "SfiBound",
    "ActivationDemo",
    "gi_deterministic_pure",
    "gi_pure_parent",
    "gi_deterministic",
    "sgi_optimal_probability",
    "complete_sgi",
    "sgi_mixed_to_pure",
    "reduce_joint",
    "fi_deterministic_pure",
    "build_fi_rank2_map",
    "sfi_probability",
    "fi_erase",
    "fi_max_mixed_reachable",
    "fi_activation_demo",
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


@dataclass
class ActivationDemo:
    joint_map: KrausMap
    joint_output: np.ndarray
    reduced_output: DensityMatrix
    one_copy_possible: bool
    single_copy_verdicts: list[ConversionVerdict]


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def gi_deterministic_pure(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> ConversionVerdict:
    """Deterministic pure-to-pure conversion under unit-diagonal Schur channels.

    Possible iff |psi_i| = |phi_i| for every i; the witness is then the
    diagonal unitary matching the phases.
    """
    _check_dims(psi.dim, phi.dim)
    dev = float(np.max(np.abs(np.abs(psi.amplitudes) ** 2 - np.abs(phi.amplitudes) ** 2)))
    if dev > 1e-9:
        return ConversionVerdict(False, 0.0, None, Reason.NOT_UNITARILY_EQUIVALENT)
    support = np.abs(psi.amplitudes) > tol.abs_eps
    phases = np.where(support, np.angle(phi.amplitudes) - np.angle(psi.amplitudes), 0.0)
    witness = KrausMap([diagonal_unitary(phases)], tol)
    return ConversionVerdict(True, 1.0, witness, None)


def gi_pure_parent(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> tuple[PureState, KrausMap]:
    """Pure state with the same diagonal as rho, plus a Schur channel mapping it to rho."""
    diag = np.clip(rho.diagonal(), 0.0, None)
    total = float(np.sum(diag))
    psi = PureState(np.sqrt(diag / total).astype(complex), tol)
    d = rho.dim
    support = diag > tol.abs_eps
    a = np.eye(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            if i != j and support[i] and support[j]:
                a[i, j] = rho.matrix[i, j] / np.sqrt(diag[i] * diag[j])
    return psi, schur_map(SchurMatrix(a, tol), tol)


def _is_pure(rho: DensityMatrix, tol: Tolerance) -> bool:
    w, _ = hermitian_eigen(rho.matrix, tol)
    return bool(1.0 - float(w[-1]) <= 1e-9)


def _pure_vector(rho: DensityMatrix, tol: Tolerance) -> np.ndarray:
    w, v = hermitian_eigen(rho.matrix, tol)
    return v[:, -1] * np.sqrt(max(float(w[-1]), 0.0))


def gi_deterministic(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    budget: "oracle.SearchBudget | None" = None,
) -> ConversionVerdict:
    """Deterministic conversion rho -> sigma under unit-diagonal Schur channels.

    The diagonal must match entrywise. A pure source with matching diagonal
    always converts (entrywise-ratio construction). A mixed source cannot
    reach a pure target. Otherwise the required multiplier matrix is pinned
    wherever rho is nonzero and the remaining entries are left to a PSD
    completion search; an unresolved completion yields possible=None.
    """
    _check_dims(rho.dim, sigma.dim)
    d = rho.dim
    if float(np.max(np.abs(rho.diagonal() - sigma.diagonal()))) > 1e-9:
        return ConversionVerdict(False, 0.0, None, Reason.DIAGONAL_MISMATCH)
    rho_pure = _is_pure(rho, tol)
    if rho_pure:
        psi = _pure_vector(rho, tol)
        support = np.abs(psi) > tol.abs_eps
        a = np.eye(d, dtype=complex)
        for i in range(d):
            for j in range(d):
                if i != j and support[i] and support[j]:
                    a[i, j] = sigma.matrix[i, j] / (psi[i] * np.conj(psi[j]))
        try:
            witness = schur_map(SchurMatrix(a, tol), tol)
        except ValueError:
            return ConversionVerdict(False, 0.0, None, Reason.COMPLETION_INFEASIBLE)
        return ConversionVerdict(True, 1.0, witness, None)
    if _is_pure(sigma, tol):
        return ConversionVerdict(False, 0.0, None, Reason.RANK_VIOLATION)
    pinned = np.eye(d, dtype=complex)
    mask = np.eye(d, dtype=bool)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if abs(rho.matrix[i, j]) > tol.abs_eps:
                pinned[i, j] = sigma.matrix[i, j] / rho.matrix[i, j]
                mask[i, j] = True
            elif abs(sigma.matrix[i, j]) > tol.abs_eps:
                return ConversionVerdict(False, 0.0, None, Reason.SUPPORT_VIOLATION)
    if mask.all():
        if not is_psd(pinned, tol):
            return ConversionVerdict(False, 0.0, None, Reason.COMPLETION_INFEASIBLE)
        return ConversionVerdict(True, 1.0, schur_map(SchurMatrix(pinned, tol), tol), None)
    if budget is None:
        budget = oracle.SearchBudget(max_iterations=5000, seed=0, convergence_eps=1e-10)
    result = oracle.psd_complete(pinned, mask, budget)
    if result.witness is None:
        return ConversionVerdict(None, 0.0, None, Reason.COMPLETION_INFEASIBLE)
    w, v = hermitian_eigen(result.witness, tol)
    cleaned = (v * np.clip(w, 0.0, None)) @ dagger(v)
    a = np.where(mask, pinned, cleaned)
    a = (a + dagger(a)) / 2.0
    np.fill_diagonal(a, 1.0)
    w2, v2 = hermitian_eigen(a, tol)
    if float(w2[0]) < -1e-8:
        return ConversionVerdict(None, 0.0, None, Reason.COMPLETION_INFEASIBLE)
    a = (v2 * np.clip(w2, 0.0, None)) @ dagger(v2)
    np.fill_diagonal(a, 1.0)
    return ConversionVerdict(True, 1.0, schur_map(SchurMatrix(a, tol), tol), None)


def sgi_optimal_probability(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> ConversionVerdict:
    """Largest success probability for psi -> phi with a single diagonal Kraus branch.

    Requires the target's support to sit inside the source's; the optimum is
    min over the target support of |psi_i|^2 / |phi_i|^2 and is achieved by
    one diagonal operator supported on the amplitude ratios.
    """
    _check_dims(psi.dim, phi.dim)
    sp = np.abs(psi.amplitudes) > tol.abs_eps
    tp = np.abs(phi.amplitudes) > tol.abs_eps
    if np.any(tp & ~sp):
        return ConversionVerdict(False, 0.0, None, Reason.SUPPORT_VIOLATION)
    ratios = np.abs(psi.amplitudes[tp]) ** 2 / np.abs(phi.amplitudes[tp]) ** 2
    prob = float(min(np.min(ratios), 1.0))
    v = np.zeros(psi.dim, dtype=complex)
    v[tp] = phi.amplitudes[tp] / psi.amplitudes[tp]
    scale = float(np.max(np.abs(v)))
    v = v / scale
    witness = KrausMap([np.diag(v)], tol)
    return ConversionVerdict(True, prob, witness, None)


def complete_sgi(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Extend a sub-normalized Schur-type map to a trace-preserving one.

    Appends basis-diagonal failure branches sqrt(1 - A_ii) |i><i|; the
    completed map is a unit-diagonal Schur channel.
    """
    from .channels import extract_schur_matrix

    sm = extract_schur_matrix(m, tol)
    if sm is None:
        raise ValueError("map does not act by entrywise multiplication")
    diag = np.clip(np.real(np.diag(sm.matrix)), 0.0, 1.0)
    extra = []
    for i in range(m.dim):
        leftover = 1.0 - diag[i]
        if leftover > 1e-12:
            k = np.zeros((m.dim, m.dim), dtype=complex)
            k[i, i] = np.sqrt(leftover)
            extra.append(k)
    return KrausMap(list(m.kraus) + extra, tol)


def sgi_mixed_to_pure(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL
) -> tuple[ConversionVerdict, tuple[int, int] | None]:
    """Stochastic extraction of a coherent pure state from a mixed state.

    Succeeds iff projecting onto some pair of basis labels leaves a rank-1
    block with a nonzero off-diagonal entry; the witness is that projector
    and the branch probability is the block's trace.
    """
    if _is_pure(rho, tol):
        raise ValueError("source state is already pure")
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    if frobenius(off) <= tol.abs_eps:
        raise ValueError("source state is incoherent")
    d = rho.dim
    for i in range(d):
        for j in range(i + 1, d):
            block = rho.matrix[np.ix_([i, j], [i, j])]
            if abs(block[0, 1]) <= tol.abs_eps:
                continue
            w, _ = hermitian_eigen(block, tol)
            if float(w[0]) > 1e-9 * max(float(w[-1]), 0.0):
                continue
            proj = np.zeros((d, d), dtype=complex)
            proj[i, i] = 1.0
            proj[j, j] = 1.0
            prob = float(np.real(block[0, 0] + block[1, 1]))
            verdict = ConversionVerdict(True, prob, KrausMap([proj], tol), None)
            return verdict, (i, j)
    return ConversionVerdict(False, 0.0, None, Reason.NO_PURE_PROJECTION), None


def reduce_joint(a_joint: SchurMatrix, sigma: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> SchurMatrix:
    """Effective Schur matrix on the first factor when the second is fixed to sigma.

    For a unit-diagonal Schur channel on a d*d product space applied to
    rho (x) sigma, tracing out the second factor acts on rho as the Schur
    matrix Ã_ij = sum_k sigma_kk A_(ik),(jk)."""
    d = sigma.dim
    if a_joint.dim != d * d:
        raise ValueError("joint matrix dimension must be the square of the state dimension")
    if float(np.max(np.abs(np.real(np.diag(a_joint.matrix)) - 1.0))) > tol.abs_eps * d * d:
        raise ValueError("joint matrix must have unit diagonal")
    a4 = a_joint.matrix.reshape(d, d, d, d)
    reduced = np.einsum("ikjk,k->ij", a4, sigma.diagonal().astype(complex))
    reduced = (reduced + dagger(reduced)) / 2.0
    np.fill_diagonal(reduced, 1.0)
    return SchurMatrix(reduced, tol)


def _label_map(items: list[float], caps: list[float], limit: int) -> list[int] | None:
    # target label per source population (items descending) such that every
    # label is used and its populations sum to its cap within 1e-9, or None;
    # BudgetExhaustedError after limit placements. Bin completion: the largest
    # unplaced population opens a label, smaller ones complete it; one
    # candidate per distinct capacity or population is tried at each level.
    assigned = [-1] * len(items)
    nodes = 0

    def dead(cap: float) -> bool:
        # short of its population, but every source population overfills it
        return 1e-9 < cap < items[-1] - 1e-9

    def place(b: int, start: int) -> bool:
        nonlocal nodes
        if b < 0:  # every label is unused or complete: open one
            used = set(assigned) - {-1}
            if assigned.count(-1) < len(caps) - len(used):
                return False
            if -1 not in assigned:
                return True
            k = assigned.index(-1)
            moves = [(k, c, (caps[c], c in used)) for c in range(len(caps))]
        else:
            moves = [(i, b, items[i]) for i in range(start, len(items)) if assigned[i] < 0]
        tried = set()
        for i, c, key in moves:
            if items[i] > caps[c] + 1e-9 or key in tried:
                continue
            tried.add(key)
            nodes += 1
            if nodes > limit:
                raise BudgetExhaustedError
            cap = caps[c]
            if dead(cap - items[i]):
                continue
            caps[c], assigned[i] = cap - items[i], c
            if place(c if caps[c] > 1e-9 else -1, i + 1):
                return True
            caps[c], assigned[i] = cap, -1
        return False

    return None if any(dead(c) for c in caps) or not place(-1, 0) else assigned


def fi_deterministic_pure(
    psi: PureState,
    phi: PureState,
    tol: Tolerance = DEFAULT_TOL,
    budget: "oracle.SearchBudget | None" = None,
) -> ConversionVerdict:
    """Deterministic pure-to-pure conversion under fully incoherent channels.

    Possible iff some label map f from the source support onto the target
    support coarse-grains the populations: |phi_r|^2 = sum over f(j) = r of
    |psi_j|^2 within 1e-9. f is found by backtracking, each placement counting
    against budget.max_iterations: exponential in d at worst, at most 64
    placements at d = 7 and 2,048 at d = 12 on random pairs. False carries a
    reason; None means only that the budget ran out.

    The witness has as many branches as the largest fibre F -> r; F's columns
    are those of phase(phi_r) Q^dag, Q unitary with first column
    psi_F / |psi_F|. It must be one-form, trace preserving and of fidelity
    1 - 1e-8 (or what f promises, if less), else ArithmeticError.
    """
    _check_dims(psi.dim, phi.dim)
    amp_s, amp_t = np.abs(psi.amplitudes), np.abs(phi.amplitudes)
    src = np.flatnonzero(amp_s > tol.abs_eps)
    tgt = np.flatnonzero(amp_t > tol.abs_eps)
    if tgt.size > src.size:
        return ConversionVerdict(False, 0.0, None, Reason.RANK_VIOLATION)
    order = src[np.argsort(-amp_s[src], kind="stable")]
    limit = (budget or oracle.SearchBudget()).max_iterations
    try:
        f = _label_map((amp_s[order] ** 2).tolist(), (amp_t[tgt] ** 2).tolist(), limit)
    except BudgetExhaustedError:
        return ConversionVerdict(None, 0.0, None, None)
    if f is None:
        reason = Reason.NOT_UNITARILY_EQUIVALENT if tgt.size == src.size else Reason.DIAGONAL_MISMATCH
        return ConversionVerdict(False, 0.0, None, reason)
    labels = tgt[f]
    d = psi.dim
    ops = np.zeros((int(np.max(np.bincount(labels))), d, d), dtype=complex)
    for r in tgt:
        fibre = order[labels == r]
        u = psi.amplitudes[fibre] / np.linalg.norm(psi.amplitudes[fibre])
        frame = u[:, None]  # a unitary with first column u
        if u.size > 1:
            q, upper = np.linalg.qr(np.column_stack([u, np.eye(u.size)]))
            frame = q * upper[0, 0]  # |r_00| = |u| = 1
        ops[: fibre.size, r, fibre] = phi.amplitudes[r] / amp_t[r] * dagger(frame)
    # labels outside the source support go to unused rows, one each, as e_0
    ops[0, np.delete(np.arange(d), tgt)[: d - src.size], np.delete(np.arange(d), src)] = 1.0
    # populations below 1e-9 may trade labels, so f itself may promise less
    # than 1 - 1e-8: sum over r of |phi_r| |psi_F| squared
    promised = float(amp_t @ np.sqrt(np.bincount(labels, weights=amp_s[order] ** 2, minlength=d))) ** 2
    overlap = (ops @ psi.amplitudes) @ np.conj(phi.amplitudes)
    if (
        not same_form(ops)
        or completeness_class(list(ops)) is not CompletenessClass.TRACE_PRESERVING
        or float(np.sum(np.abs(overlap) ** 2)) < min(1.0 - 1e-8, promised - 1e-10)
    ):
        raise ArithmeticError("rounding broke the fully incoherent witness")
    return ConversionVerdict(True, 1.0, KrausMap(list(ops)), None)


def build_fi_rank2_map(a, b, c, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Two-branch fully incoherent qutrit map sending rank-3 states to rank-2 ones.

    Branch i is [[a_i, 0, c_i], [0, b_i, 0], [0, 0, 0]]. Trace preservation
    pins sum |a_i|^2 = sum |b_i|^2 = sum |c_i|^2 = 1 and a . conj(c) = 0,
    all enforced within 1e-10.
    """
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    cv = np.asarray(c, dtype=complex)
    if av.shape != (2,) or bv.shape != (2,) or cv.shape != (2,):
        raise ValueError("parameters must be pairs (two branches)")
    for name, vec in (("a", av), ("b", bv), ("c", cv)):
        if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > 1e-10:
            raise ValueError(f"column normalization violated for {name}")
    if abs(complex(np.sum(av * np.conj(cv)))) > 1e-10:
        raise ValueError("cross-column orthogonality a . conj(c) = 0 violated")
    ops = []
    for i in range(2):
        k = np.zeros((3, 3), dtype=complex)
        k[0, 0] = av[i]
        k[0, 2] = cv[i]
        k[1, 1] = bv[i]
        ops.append(k)
    return KrausMap(ops, tol)


def sfi_probability(psi: PureState, phi: PureState, tol: Tolerance = DEFAULT_TOL) -> SfiBound:
    """Relabeling-optimized stochastic conversion bound for fully incoherent maps.

    max over relabelings sigma of min over the target support of
    |psi_sigma(i)|^2 / |phi_i|^2, attained by pairing source and target
    populations in the same sorted order: uncrossing two pairs never lowers
    the smaller ratio, and correctly rounded division is monotone, so the
    float equals that of a scan over all d! relabelings. O(d log d), no
    dimension cap. Exact when the coherence ranks agree; the optimal map is
    then returned.
    """
    _check_dims(psi.dim, phi.dim)
    d = psi.dim
    rank_s = len(coherence_set(psi, tol).members)
    rank_t = len(coherence_set(phi, tol).members)
    psq = np.abs(psi.amplitudes) ** 2
    tsq = np.abs(phi.amplitudes) ** 2
    support_t = np.flatnonzero(tsq > tol.abs_eps**2)
    # sigma[i]: the source label paired with target label i
    sigma = np.empty(d, dtype=int)
    sigma[np.argsort(-tsq, kind="stable")] = np.argsort(-psq, kind="stable")
    worst = np.min(psq[sigma[support_t]] / tsq[support_t])
    bound = float(min(max(worst, 0.0), 1.0))
    exact = rank_s == rank_t
    witness = None
    if exact:
        # one branch K[t, sigma(t)] = phi_t / psi_sigma(t) on the target support, max |K| = 1
        tp = np.abs(phi.amplitudes) > tol.abs_eps
        v = np.zeros(d, dtype=complex)
        v[tp] = phi.amplitudes[tp] / psi.amplitudes[sigma[tp]]
        k = np.zeros((d, d), dtype=complex)
        k[np.arange(d), sigma] = v / float(np.max(np.abs(v)))
        witness = KrausMap([k], tol)
    return SfiBound(lower_bound=bound, exact=exact, map=witness)


def fi_erase(target: int, d: int, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Fully incoherent erasure: every input collapses to the basis state |target>."""
    if d < 1 or not (0 <= target < d):
        raise ValueError("target label out of range")
    ops = []
    for j in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[target, j] = 1.0
        ops.append(k)
    return KrausMap(ops, tol)


def fi_max_mixed_reachable(rho: DensityMatrix) -> bool:
    """Whether a fully incoherent channel can send rho to the maximally mixed state.

    Full-rank targets force invertible operators (label permutations), so
    this requires the populations to be uniform already."""
    return float(np.max(np.abs(rho.diagonal() - 1.0 / rho.dim))) <= 1e-9


def fi_activation_demo(tol: Tolerance = DEFAULT_TOL) -> ActivationDemo:
    """Two copies of the uniform qubit state reach a state whose single copy is blocked.

    The witness of fi_deterministic_pure takes the product of two uniform
    qubits to the pure state (1+i, 1, 0, 1)/2, whose first marginal has
    populations (3/4, 1/4). One copy alone cannot reach that marginal: its
    populations are (1/2, 1/2) under every relabeling, and unit-diagonal
    Schur channels preserve populations."""
    source = plus_state(4)
    joint = fi_deterministic_pure(source, PureState(np.array([1 + 1j, 1, 0, 1]) / 2, tol), tol).map
    out, prob = apply(joint, source.density())
    if abs(prob - 1.0) > 1e-12:
        raise AssertionError("activation map must be trace preserving on the product state")
    reduced = DensityMatrix(partial_trace_second(out, 2, 2))
    marginal = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))
    verdicts = []
    for mapping in ((0, 1), (1, 0)):
        p_unitary = permutation_unitary(Permutation(mapping))
        permuted = DensityMatrix(p_unitary @ plus_state(2).density() @ dagger(p_unitary))
        verdicts.append(gi_deterministic(permuted, marginal, tol))
    one_copy = any(v.possible is True for v in verdicts)
    return ActivationDemo(
        joint_map=joint,
        joint_output=out,
        reduced_output=reduced,
        one_copy_possible=one_copy,
        single_copy_verdicts=verdicts,
    )
