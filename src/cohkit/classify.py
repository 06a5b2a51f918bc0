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
       Hamiltonian is supplied); the commutator's norm is read from one thin
       QR over the live Kraus entries, never from a d^2 x d^2 matrix.

io, fi and sio are properties of the listed representation; gi, sgi, mio,
dio and tio are properties of the channel itself. A SchurMatrix A is accepted as
the channel rho -> A * rho, every Kraus representation of which is diagonal.
An exactly incoherent list (at most one nonzero entry in every operator column)
has exactly diagonal basis-projector images: io, mio and gi cost it O(n d^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ROUNDOFF, ROUNDOFF_PHASE, ROUNDOFF_SUM, Tolerance
from .linalg import as_matrix, dagger, frobenius, hermitian_eigen
from .channels import KrausMap, SchurMatrix, _kraus_tensor, extract_schur_matrix

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
]


class BudgetExhaustedError(RuntimeError):
    """A bounded search ran out of iterations without reaching a decision."""


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal Hamiltonian given by its energies; degeneracies and an overflowing span are rejected."""

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        e = [float(x) for x in self.energies]
        if len(e) < 1 or not all(np.isfinite(x) for x in e):
            raise ValueError("energies must be a nonempty finite sequence")
        if not np.isfinite(max(e) - min(e)):  # tio reads the gaps E_i - E_a
            raise ValueError("energies must span a finite range (max - min overflows)")
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


@dataclass(frozen=True, eq=False)
class ExtremalityWitness:
    """gi_extremality's answer, kept on the SchurMatrix and shared by every caller: witness_vectors
    (n = 2 only) is a tuple of read-only arrays."""

    extremal: bool
    rank_found: int
    rank_required: int
    witness_vectors: tuple[np.ndarray, ...] | None


def is_incoherent_operator(k, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff each column holds at most one entry with modulus above abs_eps."""
    a = as_matrix(k)
    return bool(np.all(np.sum(np.abs(a) > tol.abs_eps, axis=0) <= 1))


def same_form(kraus, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff, per column, all operators' nonzero entries share one row; kraus as in completeness_class."""
    return _one_form(np.abs(_kraus_tensor(kraus)) > tol.abs_eps)


def _one_form(hit: np.ndarray) -> bool:
    # hit[s, a, i] = |K_s[a, i]| > abs_eps; per column, at most one row hit across operators
    return bool((hit.any(axis=0).sum(axis=0) <= 1).all())


def _support_grams(t: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # g[i] = C_i C_i^dag, C_i[k, s] = t[s, rows[i, k], i]: column i of every operator on the rows
    # kept in it (ascending), padded up to the widest column, w, with rows that are zero in column i;
    # O(n d w^2), w = 1 for a diagonal list. When every entry is kept, C_i is the whole column i as
    # it stands and rows is arange(d), the same for every column
    d = t.shape[1]
    if keep.all():
        rows = np.arange(d)
        c = t.transpose(2, 1, 0)
    else:
        rows = np.argsort(~keep, axis=0, kind="stable")[: keep.sum(axis=0).max()].T
        c = t[:, rows, np.arange(d)[:, None]].transpose(1, 2, 0)
    c = np.ascontiguousarray(c)  # contiguous, so matmul hands each C_i to BLAS
    return c @ c.conj().transpose(0, 2, 1), rows


def _one_per_column(t: np.ndarray) -> bool:
    # every column of every operator holds at most one nonzero entry (exact, no abs_eps)
    return bool((np.count_nonzero(t, axis=1) <= 1).all())


def _image_norms(t: np.ndarray, live: np.ndarray, one_per_column: bool) -> tuple[np.ndarray, np.ndarray]:
    # images[i] = map(|i><i|) = C_i C_i^dag, where C_i[a, s] = t[s, a, i], vanishes outside the rows
    # live in column i (live[a, i]: K_s[a, i] != 0 for some s); those rows and row i, which holds the
    # target 1, are kept. Returns the Frobenius norms of each image's off-diagonal part and of
    # images[i] - |i><i|, summed from non-negative squares only: a difference of squares cancels at
    # abs_eps * d. With one nonzero per operator column (_one_per_column) each image is
    # sum_a P[a, i] |a><a|, P = sum_s |K_s|^2, exactly diagonal: off is 0, and no Gram is formed
    d = t.shape[1]
    if one_per_column:
        p = (t.real**2 + t.imag**2).sum(axis=0) - np.eye(d)
        return np.zeros(d), np.sqrt((p * p).sum(axis=0))
    images, rows = _support_grams(t, live | np.eye(d, dtype=bool))
    kk = np.arange(images.shape[1])
    sq = (images.conj() * images).real
    sq[:, kk, kk] = 0.0
    off = sq.sum(axis=(1, 2))
    moved = (np.abs(images[:, kk, kk] - (rows == np.arange(d)[:, None])) ** 2).sum(axis=1)
    return np.sqrt(off), np.sqrt(off + moved)


def _schur_form(m: KrausMap | SchurMatrix, tol: Tolerance) -> tuple[SchurMatrix | None, np.ndarray | None]:
    # (A, None) for a Schur channel: a SchurMatrix is its own A, and an exactly diagonal list (no
    # nonzero entry off the diagonal of any operator; exact, no abs_eps) has extract_schur_matrix's A,
    # kept on the list per tol, None when that A fails SchurMatrix's checks. (None, live) for any
    # other list, live[a, i]: K_s[a, i] != 0 for some s
    if isinstance(m, SchurMatrix):
        return m, None
    live = m.kraus.any(axis=0)  # m.kraus[s, a, i] = K_s[a, i]
    if np.count_nonzero(live) > np.count_nonzero(np.diagonal(live)):
        return None, live
    return extract_schur_matrix(m, tol), None


def _unit_diagonal(schur: SchurMatrix | None, tol: Tolerance) -> bool:
    # gi of a Schur channel: A passes SchurMatrix's checks and every |A_ii - 1| is within abs_eps * d
    return schur is not None and tol.close(float(np.abs(np.diagonal(schur.matrix) - 1.0).max()), schur.dim)


def _tensor_gi(
    m: KrausMap, live: np.ndarray, one_per_column: bool, tol: Tolerance
) -> tuple[SchurMatrix | None, bool, np.ndarray]:
    # (A, gi, off) of a list that is not exactly diagonal: extract_schur_matrix's A; gi when A exists and
    # every basis projector is fixed, moved[i] >= |A_ii - 1| as A_ii = map(|i><i|)[i, i]; off, the
    # off-diagonal norms of the basis-projector images, which mio reads
    schur = extract_schur_matrix(m, tol)
    off, moved = _image_norms(m.kraus, live, one_per_column)
    return schur, schur is not None and bool(tol.close(moved.max(), m.dim)), off


def classify_channel(
    m: KrausMap | SchurMatrix, hamiltonian: Hamiltonian | None = None, tol: Tolerance = DEFAULT_TOL
) -> ClassificationReport:
    """Membership flags of the channel and, when it is a Schur channel, its Schur matrix.

    A SchurMatrix, and an exactly diagonal list (no nonzero entry off the diagonal of
    any operator), is a Schur channel, and so is every representation of it. io, fi,
    sio, mio and dio then hold, and so does tio for any Hamiltonian, since diagonal
    unitaries commute with entrywise multiplication. The answer comes from A alone:
    sgi is whether A passes SchurMatrix's checks and gi whether every |A_ii - 1| is
    within abs_eps * d, O(d) for a SchurMatrix; a diagonal list costs O(n d^2) for the
    diagonal test and, on the first call, O(d^2 n) for A and its eigenpairs, which the
    list keeps per Tolerance and shares with every later call (extract_schur_matrix).
    Any other list is classified on its Kraus tensor: io, sio and fi from one mask, sgi
    from extract_schur_matrix (kept the same way; on the first call O(n d^2) when one
    off-diagonal entry already rules A out), the basis-projector images and dio's
    diagonals over the live support at O(n d w^2), w the widest
    column support; an exactly incoherent list (at most one nonzero entry in every
    operator column, no abs_eps) forms no Gram for its images, O(n d^2), and dio's
    only when an operator holds two nonzero entries in one row. tio comes from one
    thin QR of the L x 2n matrix [B | DB], B the n operators' L live entries and D
    their energy gaps, at O(L n^2): no L x L array, d^2 x d^2 for a dense list, is
    formed. A Hamiltonian of another dimension raises ValueError.
    """
    if hamiltonian is not None and hamiltonian.dim != m.dim:
        raise ValueError("Hamiltonian dimension does not match the map")
    schur, live = _schur_form(m, tol)
    if live is not None:
        return _classify_tensor(m, live, hamiltonian, tol)
    gi = _unit_diagonal(schur, tol)
    tio = None if hamiltonian is None else True
    return ClassificationReport(
        io=True, gi=gi, sgi=schur is not None, fi=True, sio=True, mio=True, dio=True, tio=tio, schur=schur
    )


def _classify_tensor(
    m: KrausMap, live: np.ndarray, hamiltonian: Hamiltonian | None, tol: Tolerance
) -> ClassificationReport:
    # classify_channel on the Kraus tensor, for a Hamiltonian of the map's dimension or None
    d = m.dim
    t = m.kraus
    mod = np.abs(t)
    hit = mod > tol.abs_eps

    # one mask gives io, sio and fi: hits per column (K incoherent), per row (K^dag incoherent) and
    # rows hit per column across operators (one form); io also bounds the off-diagonal norm of |c><c|,
    # c a column with p = |c|^2: sqrt(2 sum_a p_a sum_{b<a} p_b), a sum of non-negative terms (0 when
    # every operator column holds one nonzero at most)
    io = bool((hit.sum(axis=1) <= 1).all())
    one_per_column = io and _one_per_column(t)
    sio = io and bool((hit.sum(axis=2) <= 1).all())
    if io and not one_per_column:
        p = mod**2
        below = np.zeros_like(p)
        below[:, 1:] = p[:, :-1].cumsum(axis=1)
        io = bool(tol.close(np.sqrt(2.0 * (p * below).sum(axis=1)).max(), d))
    fi = io and _one_form(hit)

    schur, gi, off = _tensor_gi(m, live, one_per_column, tol)
    sgi = schur is not None
    mio = dio = bool(tol.close(off.max(), d))
    if mio and not (np.count_nonzero(t, axis=2) <= 1).all():
        # diags[a, i, j] = map(|i><j|)[a, a] = (R_a R_a^dag)[i, j], where R_a[i, s] = t[s, a, i],
        # vanishes outside the columns live in row a; when no operator has two nonzeros in one row,
        # every i != j term has a zero factor
        diags = np.abs(_support_grams(t.transpose(0, 2, 1), live.T)[0])
        kk = np.arange(diags.shape[1])
        diags[:, kk, kk] = 0.0
        dio = bool(tol.close(diags.max(), d))

    tio: bool | None = None
    if hamiltonian is not None:
        # [sop, generator] at u = (a, i), v = (b, j) is X = D B B^dag - B B^dag D, B = K^T over the L
        # live entries (L x n) and D = diag(delta), delta_(a,i) = E_i - E_a. One thin QR
        # [B | DB] = Q [R_B | R_D] gives X = Q (Y - Y^dag) Q^dag, Y = R_D R_B^dag, so ||X||_F is the
        # norm of a 2n x 2n matrix (smaller when L < 2n): O(L n^2), no L x L array
        e = np.asarray(hamiltonian.energies, dtype=float)
        flat = np.flatnonzero(live)
        n = len(m.kraus)
        b = t.reshape(n, d * d)[:, flat].T
        delta = (e[None, :] - e[:, None]).reshape(-1)[flat]
        r = np.linalg.qr(np.hstack((b, delta[:, None] * b)), mode="r")
        y = r[:, n:] @ r[:, :n].conj().T
        tio = frobenius(y - y.conj().T) <= tol.abs_eps * d * d

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
    hit = np.abs(ops) > tol.abs_eps  # hit[s, a, i]
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
    new_ops = ops.copy()
    new_ops[s1] = root * (ops[s1] + ops[s2])
    new_ops[s2] = root * (ops[s1] - ops[s2])
    return KrausMap(new_ops, tol)


def _gi_extremality(m: KrausMap | SchurMatrix, tol: Tolerance) -> tuple[SchurMatrix, ExtremalityWitness]:
    # A of a gi channel (classify_channel's gi and A, none of its other flags) and its extremality,
    # kept on A per tol; the gi check runs on every call, so a map that is not gi raises under each tol
    unit, live = _schur_form(m, tol)
    if live is None:
        gi = _unit_diagonal(unit, tol)
    else:
        unit, gi, _ = _tensor_gi(m, live, _one_per_column(m.kraus), tol)
    if not gi:
        raise ValueError("map is not a unit-diagonal Schur channel")
    if tol not in unit._extremality:
        unit._extremality[tol] = _rank_test(unit, tol)
    return unit, unit._extremality[tol]


def _rank_test(unit: SchurMatrix, tol: Tolerance) -> ExtremalityWitness:
    # Choi's test on the minimal diagonal Kraus operators x_k from A's eigenpairs, kept above the cut:
    # the n^2 vectors conj(x_i) * x_j are independent, read from one SVD of the n^2 x d matrix of them;
    # minimal_representation's relative cut on the eigenvalues of A keeps round-off eigenvalues of a
    # list padded beyond the rank out
    w, v = unit.eigen
    keep = np.flatnonzero(w > tol.rank_cut(float(w[-1])))
    x = (np.sqrt(w[keep]) * v[:, keep]).T  # x[k]: diagonal of the k-th minimal Kraus operator
    n = len(keep)  # row i * n + j holds conj(x_i) * x_j
    rows = (np.conj(x)[:, None, :] * x[None, :, :]).reshape(n * n, unit.dim)
    sing = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sing > tol.rank_cut(float(sing[0]))))
    witness = None
    if n == 2:
        a, b = x
        witness = (np.abs(a) ** 2, np.abs(b) ** 2, np.conj(a) * b, a * np.conj(b))
        for vec in witness:
            vec.flags.writeable = False
    return ExtremalityWitness(
        extremal=bool(rank == n * n), rank_found=rank, rank_required=n * n, witness_vectors=witness
    )


def gi_extremality(m: KrausMap | SchurMatrix, tol: Tolerance = DEFAULT_TOL) -> ExtremalityWitness:
    """Decide extremality of a unit-diagonal Schur channel among all channels.

    The channel with diagonal Kraus operators D_1 .. D_n is extremal iff the
    n^2 vectors diag(D_i^dag D_j) are linearly independent. The test runs on
    the minimal diagonal representation taken from the eigenpairs of the d x d
    Schur matrix A, so it is representation-independent. The gi check and A are
    classify_channel's, without its other flags: O(d) for a SchurMatrix, whose
    eigenpairs are those of its own PSD check; for a Kraus list, A's eigenpairs
    come from one SVD of the d x n Kraus diagonals, O(d^2 n) on the first call,
    and A is never eigendecomposed. A and its eigenpairs are computed once per list
    and Tolerance and then shared (extract_schur_matrix), and the n^2 x d SVD below
    runs once per A and tol: the answer is kept on the SchurMatrix and every later
    call (and mixed_unitary_decompose) returns the same read-only witness. The gi
    check still runs on every call. A list that is not
    exactly diagonal also pays the basis-projector images that gi reads, not the
    io/sio/fi mask or dio's diagonals. No Choi matrix.
    """
    return _gi_extremality(m, tol)[1]


def _descent_seed(x: np.ndarray, rng, tol: Tolerance) -> np.ndarray:
    """A point of the range of x (d x r, full column rank) whose moduli are those of x's rows.

    With B an orthonormal basis of that range and x = B C, the points of
    S = {Z >= 0 (r x r) : diag(B Z B^dag) = diag(x x^dag)} are Z = C Y C^dag. The descent
    starts at Y = I and keeps the factor x of the current point, whose face of S is
    {x Y x^dag : Y >= 0}: each step moves Y along a random Hermitian H with
    diag(x H x^dag) = 0 up to the PSD boundary, Y = I + tau H with tau = -1 / min eig H,
    and refactors x, whose rank drops. It stops at rank 1 or where the face has no null
    direction left, and returns x q, q the top eigenvector of x^dag x: the top
    eigenvector of the final Z times the root of its eigenvalue, B applied. At rank 1
    that point is unimodular when diag(x x^dag) = 1.
    """
    while x.shape[1] > 1:
        k = x.shape[1]
        # row i of the real map from the k^2 coordinates of H (diagonal, then the real and
        # imaginary parts above it) to diag(x H x^dag)_i, from p[i, a, b] = x_ia conj(x_ib)
        p = x[:, :, None] * np.conj(x)[:, None, :]
        kk = np.arange(k)
        i, j = np.nonzero(kk[:, None] < kk)  # np.triu_indices(k, 1), without its fixed cost
        m = np.concatenate((p.real[:, kk, kk], 2.0 * p.real[:, i, j], -2.0 * p.imag[:, i, j]), axis=1)
        # a complex SVD, the LAPACK routine that A's factor already loaded: a real one would
        # page in another routine's code, about 0.5 MB of peak RSS
        _, sing, vh = np.linalg.svd(m.astype(complex), full_matrices=False)
        row = vh[: int(np.sum(sing > tol.rank_cut(float(sing[0]))))]  # the row space of m
        if len(row) == k * k:
            break
        c = rng.normal(size=k * k)
        c -= (np.conj(row).T @ (row @ c)).real  # a Gaussian vector of the null space of m
        h = np.zeros((k, k), dtype=complex)
        h[i, j] = c[k : k + len(i)] + 1j * c[k + len(i) :]
        h = h + dagger(h) + np.diag(c[:k])
        eh, q = np.linalg.eigh(h)
        if -eh[0] <= tol.rank_cut(float(np.max(np.abs(eh)))):
            break  # no boundary ahead: x is rank deficient within round-off
        lam = 1.0 - eh / eh[0]  # the eigenvalues of I + tau H; lam[0] = 0, the boundary
        keep = lam > tol.rank_cut(float(lam[-1]))
        x = x @ (q[:, keep] * np.sqrt(lam[keep]))
    if x.shape[1] == 1:
        return x[:, 0]
    return x @ np.linalg.eigh(dagger(x) @ x)[1][:, -1]


def _phased_factor(w: np.ndarray, v: np.ndarray, rank: int, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    # w, v: ascending eigenpairs, rank of them above the cut. The kept eigenvectors, each phased so
    # that its first entry within rel_eps of its largest modulus is real, and x = basis sqrt(w), so
    # that x x^dag is the matrix within the cut and x depends on it alone, not on how w, v were found
    basis = v[:, v.shape[1] - rank :]
    mod = np.abs(basis)
    lead = basis[np.argmax(mod >= mod.max(axis=0) * (1.0 - tol.rel_eps), axis=0), np.arange(rank)]
    basis = basis * (np.conj(lead) / np.abs(lead))
    return basis, basis * np.sqrt(w[v.shape[1] - rank :])


def _unimodular_in_range(w: np.ndarray, v: np.ndarray, rng, tol: Tolerance) -> np.ndarray | None:
    # w, v: the eigenpairs of a remainder with unit diagonal within its cut, v of shape d x rank.
    # Alternating projection between the range and the torus, from descent seeds that start at the
    # phased factor of the remainder, so that the seeds depend on the remainder alone
    d = v.shape[0]
    basis, x = _phased_factor(w, v, v.shape[1], tol)
    proj = basis @ dagger(basis)
    best_u = None
    best_res = np.inf
    for _ in range(64):
        state = rng.bit_generator.state
        z = _descent_seed(x, rng, tol)
        u = np.exp(1j * np.angle(np.where(np.abs(z) > ROUNDOFF_PHASE, z, 1.0)))
        for _ in range(2000):
            pu = proj @ u
            u_new = np.exp(1j * np.angle(np.where(np.abs(pu) > ROUNDOFF_PHASE, pu, 1.0)))
            if float(np.max(np.abs(u_new - u))) < ROUNDOFF:
                u = u_new
                break
            u = u_new
        res = float(np.linalg.norm(u - proj @ u))
        if res <= tol.abs_eps / 10 * np.sqrt(d):
            return u
        if res < best_res:
            best_res = res
            best_u = u
        if rng.bit_generator.state == state:
            break  # the descent drew nothing (its first face had no null direction): restarts repeat it
    # a slightly off-range direction only perturbs the remainder at res**2
    if best_res <= tol.abs_eps * 10 * np.sqrt(d):
        return best_u
    return None


def _term(u: np.ndarray) -> np.ndarray:
    # u and e^{i theta} u give one term: its phases relative to the first, mod 2 pi, so that
    # phases[0] = 0 exactly (u_0 != 0, as u is unimodular or spans a unit-diagonal rank-1 remainder)
    phases = np.angle(u)
    return np.mod(phases - phases[0], 2.0 * np.pi)


def mixed_unitary_decompose(
    m: KrausMap | SchurMatrix, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]] | None:
    """Write a unit-diagonal Schur channel as a convex mixture of diagonal unitaries.

    Returns a list of (weight, phase-vector) pairs, at most rank(A) of them,
    whose mixture rebuilds S A S, S = diag(A)^(-1/2), or None when the channel
    is provably not a mixture (extremal with more than one Kraus operator).
    Each phase vector has phases[0] = 0, since u and e^{i theta} u give the
    same term. S A S is the channel's Schur matrix A when A's diagonal is 1 to
    round-off. A gi channel's diagonal may be 1 only within abs_eps * d; the
    terms then rebuild S A S, which has A's rank and a unit diagonal (S_ii = 1
    where A_ii = 0, which gi allows only when abs_eps * d >= 1; each such entry
    is set to 1 and adds one to the rank). Peeling extracts
    one unimodular rank-1 component per step with the largest weight that
    keeps the remainder PSD, so the remainder's rank drops every step. At
    every rank r >= 2 each restart of the search for that component is seeded
    by a descent over r x r matrices (one eigh of order at most r per step) to
    a rank-1 point, a unimodular vector in the range; a descent step exists
    while r^2 > dim, so for dim <= 3 the peel ends within dim terms. The terms
    depend on A alone wherever A's kept eigenvalues are distinct.

    A, the gi check and the extremality test are gi_extremality's: the test's
    n^2 x d SVD is kept on A per Tolerance, so after gi_extremality (or a first
    decomposition) it is not taken again; the terms, which depend on seed, are not
    kept. The extremality test and the first
    peeling step share A's eigenpairs (a SchurMatrix's own, or from the SVD of a
    Kraus list's d x n diagonals, O(d^2 n) on the first call, then kept on the list
    per Tolerance and shared with classify_channel); a rescaled S A S takes one
    eigh of order d. Each remainder is carried as its kept eigenpairs (w, V), V of shape
    d x k with k <= rank(A), and never formed: peeling u leaves
    (diag(w) - t c c^dag) / (1 - t) in V's coordinates, c = V^dag u, so a step
    costs O(d k^2) plus one k x k eigh, besides the search's d x d projector.
    No Choi matrix.

    Raises BudgetExhaustedError when no peelable direction is found within
    the iteration budget (possible for dim >= 4); that outcome is not a
    proof of impossibility.
    """
    unit, wit = _gi_extremality(m, tol)
    if wit.extremal and wit.rank_required > 1:
        return None
    a0 = unit.matrix
    w, v = unit.eigen
    diag = np.diagonal(a0).real
    if float(np.max(np.abs(diag - 1.0))) > ROUNDOFF_SUM:
        # peel S A S, of A's rank and unit diagonal, from its own eigenpairs, so that every remainder
        # keeps a unit diagonal; a zero row of A keeps S_ii = 1
        s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        a0 = s[:, None] * a0 * s[None, :]
        np.fill_diagonal(a0, 1.0)
        w, v = hermitian_eigen(a0, tol)
    cut = tol.rank_cut(float(w[-1]))
    rng = np.random.default_rng(seed)
    terms: list[tuple[float, np.ndarray]] = []
    remaining = 1.0
    for _ in range(unit.dim):
        keep = w > tol.rank_cut(float(w[-1]))
        w, v = w[keep], v[:, keep]
        if len(w) <= 1:
            terms.append((remaining, _term(v[:, -1])))
            break
        u = _unimodular_in_range(w, v, rng, tol)
        if u is None:
            raise BudgetExhaustedError("no unimodular direction found in the range of the remainder")
        comps = dagger(v) @ u
        t = 1.0 / float(np.sum((np.abs(comps) ** 2) / w))
        if not (0.0 < t < 1.0 - ROUNDOFF_SUM):
            raise BudgetExhaustedError("peeling weight left the open interval (0, 1)")
        if remaining * (1.0 - t) * unit.dim <= cut:
            # the rest of the mixture, of unit diagonal and weight remaining * (1 - t), has its
            # eigenvalues below A's rank cut: u takes that weight and ends the mixture
            terms.append((remaining, _term(u)))
            break
        terms.append((remaining * t, _term(u)))
        r = (np.diag(w) - t * np.outer(comps, np.conj(comps))) / (1.0 - t)
        w, q = np.linalg.eigh((r + dagger(r)) / 2.0)
        v = v @ q
        remaining *= 1.0 - t
    else:
        raise BudgetExhaustedError("the remainder did not reach rank 1 within dim peeling steps")
    weights = np.array([weight for weight, _ in terms])
    u = np.exp(1j * np.array([phases for _, phases in terms]))
    if frobenius((u.T * weights) @ np.conj(u) - a0) > tol.abs_eps * 10:
        raise BudgetExhaustedError("decomposition failed to reconstruct the Schur matrix")
    return terms
