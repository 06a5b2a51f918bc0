"""Membership tests for the lattice of incoherence-compatible operation classes.

Flags reported for a Kraus representation:

- io:  every listed operator maps basis states to (weighted) basis states,
       so the representation visibly creates no coherence.
- fi:  io and all operators share one column-support pattern, which makes
       every Kraus representation of the channel incoherent as well.
- gi:  the channel fixes every basis projector, equivalently it multiplies
       the input entrywise by a PSD matrix with unit diagonal.
- sgi: entrywise multiplication by a PSD matrix with diagonal in [0, 1]
       (the trace non-increasing relaxation of gi).
- sio: operators and their adjoints are both incoherent.
- mio: basis projectors are sent to diagonal states.
- dio: mio, and dephasing the image of every off-diagonal basis unit kills it.
- tio: the superoperator commutes with the generator of time translations
       for a given nondegenerate diagonal Hamiltonian (None when no
       Hamiltonian is supplied).

io, fi and sio are properties of the listed representation; gi, sgi, mio,
dio and tio are properties of the channel itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, dagger, frobenius, hermitian_eigen
from .channels import KrausMap, SchurMatrix, extract_schur_matrix

__all__ = [
    "Hamiltonian",
    "ClassificationReport",
    "ExtremalityWitness",
    "BudgetExhaustedError",
    "is_incoherent_operator",
    "same_form",
    "classify_channel",
    "expose_hidden_coherence",
    "gi_extremality",
    "mixed_unitary_decompose",
    "extremal_nonunitary_gi_kraus",
    "pio_witness_channel",
    "pio_pattern_gap",
]


class BudgetExhaustedError(RuntimeError):
    """A bounded search ran out of iterations without reaching a decision."""


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal Hamiltonian given by its energies; degeneracies are rejected."""

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        e = [float(x) for x in self.energies]
        if len(e) < 1 or not all(np.isfinite(x) for x in e):
            raise ValueError("energies must be a nonempty finite sequence")
        if len(set(e)) < len(e):
            raise ValueError("energies must be pairwise distinct")
        object.__setattr__(self, "energies", tuple(e))

    @property
    def dim(self) -> int:
        return len(self.energies)


@dataclass
class ClassificationReport:
    io: bool
    gi: bool
    sgi: bool
    fi: bool
    sio: bool
    mio: bool
    dio: bool
    tio: bool | None
    schur: SchurMatrix | None


@dataclass
class ExtremalityWitness:
    extremal: bool
    rank_found: int
    rank_required: int
    witness_vectors: list[np.ndarray] | None


def is_incoherent_operator(k, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff each column holds at most one entry with modulus above abs_eps."""
    a = as_matrix(k)
    return bool(np.all(np.sum(np.abs(a) > tol.abs_eps, axis=0) <= 1))


def same_form(kraus, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff, per column, all nonzero entries across operators share one row."""
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        raise ValueError("Kraus list must be nonempty")
    return _one_form(np.abs(np.stack(ops)) > tol.abs_eps)


def _one_form(hit: np.ndarray) -> bool:
    # hit[s, a, i] = |K_s[a, i]| > abs_eps; per column, at most one row hit across operators
    return bool(np.all(np.sum(np.any(hit, axis=0), axis=0) <= 1))


def _image_norms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # images[i] = map(|i><i|) = C_i C_i^dag, where C_i[a, s] = t[s, a, i]; returns the Frobenius
    # norms of each image's off-diagonal part and of images[i] - |i><i|, summed from
    # non-negative squares only: a difference of squares cancels at abs_eps * d
    c = np.ascontiguousarray(t.transpose(2, 1, 0))  # contiguous, so matmul hands each C_i to BLAS
    images = c @ np.conj(c).transpose(0, 2, 1)
    ii = np.arange(images.shape[0])
    sq = (np.conj(images) * images).real
    sq[:, ii, ii] = 0.0
    off = np.sum(sq, axis=(1, 2))
    return np.sqrt(off), np.sqrt(off + np.sum(np.abs(images[:, ii, ii] - np.eye(ii.size)) ** 2, axis=1))


def _unit_schur(schur: SchurMatrix | None, moved: np.ndarray, eps: float) -> SchurMatrix | None:
    # the gi predicate: Schur form and every basis projector fixed (moved from _image_norms);
    # moved[i] >= |A_ii - 1| since A_ii = map(|i><i|)[i, i], so A's diagonal is 1 within eps
    return schur if schur is not None and np.max(moved) <= eps else None


def classify_channel(
    m: KrausMap, hamiltonian: Hamiltonian | None = None, tol: Tolerance = DEFAULT_TOL
) -> ClassificationReport:
    d = m.dim
    eps = tol.abs_eps * d
    t = np.stack(m.kraus)  # t[s, a, i] = K_s[a, i]
    mod = np.abs(t)
    hit = mod > tol.abs_eps

    # one mask gives io, sio and fi: hits per column (K incoherent), per row (K^dag incoherent) and
    # rows hit per column across operators (one form); io also bounds the off-diagonal norm of |c><c|,
    # c a column with p = |c|^2: sqrt(2 sum_a p_a sum_{b<a} p_b), a sum of non-negative terms
    io = bool(np.all(np.sum(hit, axis=1) <= 1))
    sio = io and bool(np.all(np.sum(hit, axis=2) <= 1))
    if io:
        p = mod**2
        below = np.zeros_like(p)
        below[:, 1:] = np.cumsum(p[:, :-1], axis=1)
        io = bool(np.max(np.sqrt(2.0 * np.sum(p * below, axis=1))) <= eps)
    fi = io and _one_form(hit)

    schur = extract_schur_matrix(m, tol)
    sgi = schur is not None
    off, moved = _image_norms(t)
    gi = _unit_schur(schur, moved, eps) is not None
    mio = dio = bool(np.max(off) <= eps)
    if mio:
        # diags[a, i, j] = map(|i><j|)[a, a] = (R_a R_a^dag)[i, j], where R_a[i, s] = t[s, a, i]
        r = np.ascontiguousarray(t.transpose(1, 2, 0))
        diags = np.abs(r @ np.conj(r).transpose(0, 2, 1))
        diags[:, np.arange(d), np.arange(d)] = 0.0
        dio = bool(np.max(diags) <= eps)

    tio: bool | None = None
    if hamiltonian is not None:
        if hamiltonian.dim != d:
            raise ValueError("Hamiltonian dimension does not match the map")
        # [sop, generator] at u = (a, i), v = (b, j) is (K^T conj K)[u, v] * (delta_u - delta_v),
        # delta_(a,i) = E_i - E_a; only entries nonzero in some K_s count (d x d when diagonal)
        e = np.asarray(hamiltonian.energies, dtype=float)
        live = np.flatnonzero(np.any(t != 0.0, axis=0))
        k = t.reshape(len(m.kraus), d * d)[:, live]
        delta = (e[None, :] - e[:, None]).reshape(-1)[live]
        tio = frobenius((k.T @ np.conj(k)) * (delta[:, None] - delta[None, :])) <= 1e-9 * d * d

    return ClassificationReport(io=io, gi=gi, sgi=sgi, fi=fi, sio=sio, mio=mio, dio=dio, tio=tio, schur=schur)


def expose_hidden_coherence(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap | None:
    """Rebuild an incoherent representation so that a non-incoherent operator shows.

    For a representation that is incoherent but not of one shared form, two
    operators with different nonzero rows in a common column are mixed by a
    2x2 Hadamard block; the result describes the same channel but contains an
    operator with two nonzero entries in one column. Returns None when the
    representation already has one shared form (nothing hidden to expose).
    """
    ops = m.kraus
    hit = np.abs(np.stack(ops)) > tol.abs_eps  # hit[s, a, i]
    if np.any(np.sum(hit, axis=1) > 1):
        raise ValueError("representation is not incoherent")
    # pair[j, s1, s2]: s1 and s2 both hit column j, in different rows; the first pair in
    # (column, s1, s2) order has s1 < s2 and is mixed
    has, row = np.any(hit, axis=1).T, np.argmax(hit, axis=1).T  # (column, operator)
    pair = has[:, :, None] & has[:, None, :] & (row[:, :, None] != row[:, None, :])
    if not pair.any():
        return None
    _, s1, s2 = np.unravel_index(np.argmax(pair), pair.shape)
    root = 1.0 / np.sqrt(2.0)
    new_ops = [k.copy() for k in ops]
    new_ops[s1] = root * (ops[s1] + ops[s2])
    new_ops[s2] = root * (ops[s1] - ops[s2])
    return KrausMap(new_ops, tol)


def _gi_extremality(m: KrausMap, tol: Tolerance) -> tuple[np.ndarray, ExtremalityWitness]:
    # A of a gi channel and its extremality; minimal_representation's relative cut on
    # eigh(A) keeps round-off eigenvalues of a list padded beyond the rank out
    moved = _image_norms(np.stack(m.kraus))[1]
    unit = _unit_schur(extract_schur_matrix(m, tol), moved, tol.abs_eps * m.dim)
    if unit is None:
        raise ValueError("map is not a unit-diagonal Schur channel")
    w, v = hermitian_eigen(unit.matrix, tol)
    keep = np.flatnonzero(w > 1e-9 * max(float(w[-1]), 0.0))
    x = (np.sqrt(w[keep]) * v[:, keep]).T  # x[k]: diagonal of the k-th minimal Kraus operator
    n = len(keep)  # row i * n + j holds conj(x_i) * x_j
    rows = (np.conj(x)[:, None, :] * x[None, :, :]).reshape(n * n, m.dim)
    sing = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sing > 1e-9 * float(sing[0]))) if sing.size and sing[0] > 0 else 0
    witness = None
    if n == 2:
        a, b = x
        witness = [np.abs(a) ** 2, np.abs(b) ** 2, np.conj(a) * b, a * np.conj(b)]
    return unit.matrix, ExtremalityWitness(
        extremal=bool(rank == n * n), rank_found=rank, rank_required=n * n, witness_vectors=witness
    )


def gi_extremality(m: KrausMap, tol: Tolerance = DEFAULT_TOL) -> ExtremalityWitness:
    """Decide extremality of a unit-diagonal Schur channel among all channels.

    The channel with diagonal Kraus operators D_1 .. D_n is extremal iff the
    n^2 vectors diag(D_i^dag D_j) are linearly independent. The test runs on
    the minimal diagonal representation taken from eigh of the d x d Schur
    matrix A, so it is representation-independent. Cost: O(n d^3) for the gi
    check, one batched matmul for the basis-projector images and one squared-
    modulus pass; O(n^2 d^2) for A; O(d^3) for eigh(A); no Choi matrix.
    """
    return _gi_extremality(m, tol)[1]


def _realize_polygon(radii: np.ndarray, target: complex) -> np.ndarray:
    """Angles t_i with sum_i radii_i * exp(1j*t_i) = target.

    Assumes the polygon inequality max <= sum(rest) + |target| and
    |target| <= sum(radii) holds; entries with radius ~0 get angle 0.
    """
    n = radii.size
    if n == 0:
        if abs(target) > 1e-12:
            raise ValueError("cannot realize a nonzero target with no sides")
        return np.zeros(0)
    if n == 1:
        return np.array([np.angle(target) if abs(target) > 0 else 0.0])
    r0 = float(radii[0])
    rest = radii[1:]
    hi_rest = float(np.sum(rest))
    lo_rest = max(2.0 * float(np.max(rest)) - hi_rest, 0.0) if rest.size else 0.0
    t = abs(target)
    lo = max(lo_rest, abs(t - r0))
    hi = min(hi_rest, t + r0)
    if lo > hi + 1e-9:
        raise ValueError("polygon closure is infeasible")
    s = min(max((lo + hi) / 2.0, lo), hi)
    if t < 1e-15:
        theta0 = 0.0
    else:
        c = (t * t + r0 * r0 - s * s) / (2.0 * t * r0) if r0 > 1e-15 else 1.0
        theta0 = np.angle(target) + float(np.arccos(min(max(c, -1.0), 1.0)))
    first = r0 * np.exp(1j * theta0)
    sub = _realize_polygon(rest, target - first)
    return np.concatenate(([theta0], sub))


def _unimodular_in_range(w: np.ndarray, v: np.ndarray, rank: int, rng) -> np.ndarray | None:
    d = v.shape[0]
    if rank == d:
        return np.exp(1j * np.angle(v[:, -1]))
    if rank == d - 1:
        null = v[:, 0]
        radii = np.abs(null)
        live = radii > 1e-13
        angles = np.zeros(d)
        if np.any(live):
            angles[live] = _realize_polygon(radii[live], 0.0 + 0.0j)
        return np.exp(1j * (angles + np.angle(np.where(live, null, 1.0))))
    # corank >= 2: alternating projection between the range and the torus
    basis = v[:, d - rank :]
    proj = basis @ dagger(basis)
    best_u = None
    best_res = np.inf
    for _ in range(64):
        z = basis @ (rng.normal(size=rank) + 1j * rng.normal(size=rank))
        u = np.exp(1j * np.angle(np.where(np.abs(z) > 1e-14, z, 1.0)))
        for _ in range(2000):
            pu = proj @ u
            u_new = np.exp(1j * np.angle(np.where(np.abs(pu) > 1e-14, pu, 1.0)))
            if float(np.max(np.abs(u_new - u))) < 1e-15:
                u = u_new
                break
            u = u_new
        res = float(np.linalg.norm(u - proj @ u))
        if res <= 1e-10 * np.sqrt(d):
            return u
        if res < best_res:
            best_res = res
            best_u = u
    # a slightly off-range direction only perturbs the remainder at res**2
    if best_res <= 1e-8 * np.sqrt(d):
        return best_u
    return None


def mixed_unitary_decompose(
    m: KrausMap, max_terms: int = 16, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]] | None:
    """Write a unit-diagonal Schur channel as a convex mixture of diagonal unitaries.

    Returns a list of (weight, phase-vector) pairs whose mixture reproduces
    the channel's Schur matrix, or None when the channel is provably not a
    mixture (extremal with more than one Kraus operator). Peeling extracts
    one unimodular rank-1 component per step with the largest weight that
    keeps the remainder PSD, so the remainder's rank drops every step; for
    dim <= 3 this always terminates with at most dim terms.

    A is read once from the Kraus diagonals and the gi check is one batched
    matmul, O(n d^3); the extremality test and every peeling step use eigh of
    a d x d matrix, O(d^3), and no Choi matrix.

    Raises BudgetExhaustedError when no peelable direction is found within
    the iteration budget (possible for dim >= 4); that outcome is not a
    proof of impossibility.
    """
    a0, wit = _gi_extremality(m, tol)
    if wit.extremal and wit.rank_required > 1:
        return None
    a = a0
    rng = np.random.default_rng(seed)
    terms: list[tuple[float, np.ndarray]] = []
    remaining = 1.0
    for _ in range(max_terms):
        w, v = hermitian_eigen(a, tol)
        top = max(float(w[-1]), 0.0)
        rank = int(np.sum(w > 1e-9 * top)) if top > 0 else 0
        if rank <= 1:
            terms.append((remaining, np.angle(v[:, -1])))
            break
        u = _unimodular_in_range(w, v, rank, rng)
        if u is None:
            raise BudgetExhaustedError("no unimodular direction found in the range of the remainder")
        keep = w > 1e-9 * top
        comps = dagger(v[:, keep]) @ u
        denom = float(np.sum((np.abs(comps) ** 2) / w[keep]))
        t = 1.0 / denom
        if not (0.0 < t < 1.0 - 1e-12):
            raise BudgetExhaustedError("peeling weight left the open interval (0, 1)")
        terms.append((remaining * t, np.angle(u)))
        a = (a - t * np.outer(u, np.conj(u))) / (1.0 - t)
        np.fill_diagonal(a, 1.0)
        remaining *= 1.0 - t
    else:
        raise BudgetExhaustedError("term budget exhausted before the remainder became rank 1")
    recon = np.zeros_like(a0)
    for weight, phases in terms:
        u = np.exp(1j * phases)
        recon = recon + weight * np.outer(u, np.conj(u))
    if frobenius(recon - a0) > 1e-8:
        raise BudgetExhaustedError("decomposition failed to reconstruct the Schur matrix")
    return terms


def extremal_nonunitary_gi_kraus(d: int = 4) -> KrausMap:
    """Two diagonal Kraus operators forming an extremal non-unitary Schur channel.

    Entries a_k = 1/k and b_k = i^k * sqrt(1 - 1/k^2) for k = 1..d; for d = 4
    the four moduli/cross-term vectors are linearly independent, so the
    channel is extremal although it is not a unitary.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    k = np.arange(1, d + 1, dtype=float)
    a = 1.0 / k
    b = (1j ** np.arange(1, d + 1)) * np.sqrt(1.0 - a**2)
    return KrausMap([np.diag(a.astype(complex)), np.diag(b)])


def pio_witness_channel(theta: float) -> KrausMap:
    """Four-level unit-diagonal Schur channel used to separate Schur channels
    from mixtures of permutation-style isometries."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    k1 = np.diag(np.array([1.0, 0.0, c, c], dtype=complex))
    k2 = np.diag(np.array([0.0, 1.0, s, 1j * s], dtype=complex))
    return KrausMap([k1, k2])


def pio_pattern_gap(theta: float, grid_points: int = 200) -> float:
    """Smallest deviation, over a phase grid, from the modulus pattern a
    permutation-style representation of pio_witness_channel would force.

    Any such representation needs a combination L = alpha*K1 + beta*K2 with
    nonzero alpha, beta whose diagonal entries each vanish or share one
    modulus. The first two entries force |alpha| = |beta|, so the grid scans
    the two phases at unit modulus and measures how far the remaining two
    entries stay from the pattern. A strictly positive return value means no
    combination on the grid attains the pattern.
    """
    c, s = float(np.cos(theta)), float(np.sin(theta))
    ph = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    alpha = np.exp(1j * ph)[:, None]
    beta = np.exp(1j * ph)[None, :]
    l3 = np.abs(c * alpha + s * beta)
    l4 = np.abs(c * alpha + 1j * s * beta)
    dev3 = np.minimum(np.abs(l3 - 1.0), l3)
    dev4 = np.minimum(np.abs(l4 - 1.0), l4)
    return float(np.min(np.maximum(dev3, dev4)))
