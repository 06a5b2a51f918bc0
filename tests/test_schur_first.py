"""The Schur-first formulas of extract_schur_matrix and classify_channel against
the literal formulas they replace: the d^4 basis-image tensor and the
Kronecker-product commutator for tio. The references live here only."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit import (
    DEFAULT_TOL,
    Hamiltonian,
    KrausMap,
    SchurMatrix,
    Tolerance,
    classify_channel,
    extract_schur_matrix,
    gi_extremality,
    mixed_unitary_decompose,
)
from cohkit.linalg import frobenius

# construction tolerance loose enough to admit lists whose off-diagonal noise
# breaks trace preservation at order 1e-8; classification uses DEFAULT_TOL
LOOSE = Tolerance(1e-6, 1e-6)


def _ref_images(m):
    # images[i, a, j, b] = map(|i><j|)[a, b]
    t = np.stack(m.kraus)
    return np.einsum("sai,sbj->iajb", t, np.conj(t))


def _ref_split(m):
    # A read off the images, and the norm of every other image entry
    d = m.dim
    images = _ref_images(m)
    ii = np.arange(d)
    a = images[ii[:, None], ii[:, None], ii[None, :], ii[None, :]].copy()
    off = images.copy()
    off[ii[:, None], ii[:, None], ii[None, :], ii[None, :]] = 0.0
    return a, float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _ref_extract(m, tol=DEFAULT_TOL):
    a, residual = _ref_split(m)
    if residual > tol.abs_eps * m.dim:
        return None
    try:
        return SchurMatrix(a, tol)
    except ValueError:
        return None


def _ref_flags(m, h, tol=DEFAULT_TOL):
    d = m.dim
    eps = tol.abs_eps * d
    images = _ref_images(m)
    ii = np.arange(d)
    schur = _ref_extract(m, tol)
    io = all(np.all(np.sum(np.abs(k) > tol.abs_eps, axis=0) <= 1) for k in m.kraus)
    for k in m.kraus:
        for j in range(d):
            img = np.outer(k[:, j], np.conj(k[:, j]))
            io = io and frobenius(img - np.diag(np.diag(img))) <= eps
    mio = fixed = True
    for i in range(d):
        img = images[i, :, i, :]
        mio = mio and frobenius(img - np.diag(np.diag(img))) <= eps
        target = np.zeros((d, d), dtype=complex)
        target[i, i] = 1.0
        fixed = fixed and frobenius(img - target) <= eps
    gi = bool(fixed and schur is not None and np.max(np.abs(np.real(np.diag(schur.matrix)) - 1.0)) <= eps)
    dio = mio
    if dio:
        diags = np.einsum("iaja->ija", images)
        dio = float(np.max(np.abs(diags[~np.eye(d, dtype=bool)]), initial=0.0)) <= eps
    hm = np.diag(np.asarray(h.energies, dtype=float))
    sop = sum(np.kron(k, np.conj(k)) for k in m.kraus)
    gen = -1j * (np.kron(hm, np.eye(d)) - np.kron(np.eye(d), hm))
    tio = bool(frobenius(sop @ gen - gen @ sop) <= 1e-9 * d * d)
    return {"io": bool(io), "mio": mio, "dio": dio, "gi": gi, "sgi": schur is not None, "tio": tio}


def _unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cptp(rng, d, n):
    q = _unitary(rng, n * d)[:, :d]
    return [q[s * d : (s + 1) * d, :] for s in range(n)]


def _diagonal(rng, d, r, n):
    # diagonals are the columns of V W, W an r x n co-isometry; A = V V^dag
    v = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    diags = v @ _unitary(rng, n)[:r, :]
    return [np.diag(diags[:, s]) for s in range(n)], v


def _damping(rng, d):
    # decay |i> -> |0>, commutes with time translations for any energies
    gamma = rng.uniform(0.1, 0.9, size=d)
    gamma[0] = 0.0
    out = [np.diag(np.sqrt(1.0 - gamma).astype(complex))]
    for i in range(1, d):
        k = np.zeros((d, d), dtype=complex)
        k[0, i] = np.sqrt(gamma[i])
        out.append(k)
    return out


def _hamiltonian(rng, d):
    return Hamiltonian(tuple(float(x) for x in np.sort(rng.uniform(0.0, 10.0, size=d)) + np.arange(d)))


def _noisy(rng, ops, factor, tol=DEFAULT_TOL):
    """Add off-diagonal noise scaled so that the reference residual is factor * abs_eps * d."""
    d = ops[0].shape[0]
    off = ~np.eye(d, dtype=bool)
    noise = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * off for _ in ops]
    x = np.array([np.diag(k) for k in ops])
    y = np.array([e.reshape(-1) for e in noise])
    gx = np.conj(x) @ x.T
    gy = np.conj(y) @ y.T
    # residual(s)^2 = 2 s^2 tr(Gx Gy) + s^4 ||Gy||^2, solved for u = s^2
    a = float(np.real(np.sum(gx * gy.T)))
    b = float(np.sum(np.abs(gy) ** 2))
    target = factor * tol.abs_eps * d
    u = target**2 / (a + np.sqrt(a * a + b * target**2))
    return [k + np.sqrt(u) * e for k, e in zip(ops, noise)]


FAMILIES = ("cptp", "cptp_padded", "diagonal_padded", "damping", "noise_half", "noise_double")


@st.composite
def channels(draw):
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.integers(min_value=1 if family.startswith("cptp") else 2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=n))
    if family.startswith("cptp"):
        ops = _cptp(rng, d, n)
    elif family == "damping":
        ops = _damping(rng, d)
    else:
        ops, _ = _diagonal(rng, d, r, n)
    if family.endswith("padded"):
        zeros = [np.zeros((d, d), dtype=complex) for _ in range(draw(st.integers(1, 3)))]
        ops = [ops[i] for i in rng.permutation(len(ops))] + zeros
        ops = [ops[i] for i in rng.permutation(len(ops))]
    if family.startswith("noise"):
        ops = _noisy(rng, ops, 0.5 if family == "noise_half" else 2.0)
    return family, KrausMap(ops, LOOSE), _hamiltonian(rng, d)


@settings(max_examples=150, deadline=None)
@given(channels())
def test_extract_schur_matrix_matches_image_tensor(case):
    family, m, _ = case
    ref = _ref_extract(m)
    got = extract_schur_matrix(m)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.max(np.abs(got.matrix - ref.matrix)) <= 1e-12
    if family == "noise_half":
        assert got is not None
    if family == "noise_double":
        assert got is None


@settings(max_examples=150, deadline=None)
@given(channels())
def test_classification_flags_match_references(case):
    _, m, h = case
    ref = _ref_flags(m, h)
    report = classify_channel(m, h)
    assert {flag: getattr(report, flag) for flag in ref} == ref


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-16, 1e-12, 1e-8, 1e-4, 1.0]),
)
def test_residual_formula_across_noise_scales(d, seed, scale):
    rng = np.random.default_rng(seed)
    ops, _ = _diagonal(rng, d, 2, 3)
    off = ~np.eye(d, dtype=bool)
    ops = [k + scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * off for k in ops]
    top = np.linalg.eigvalsh(sum(np.conj(k).T @ k for k in ops))[-1]
    # halved so that A's diagonal stays clear of 1 + abs_eps: only the
    # residual can decide None below
    m = KrausMap([0.5 * k / np.sqrt(top) for k in ops])
    ref = _ref_split(m)[1]
    # thresholds just above and just below the reference residual: the new
    # residual must land on the same side of both
    above = Tolerance(ref / d * (1.0 + 1e-10), 1e-9)
    below = Tolerance(ref / d * (1.0 - 1e-10), 1e-9)
    assert extract_schur_matrix(m, above) is not None
    assert extract_schur_matrix(m, below) is None


def _cross_rank(v):
    r = v.shape[1]
    rows = np.array([np.conj(v[:, i]) * v[:, j] for i in range(r) for j in range(r)])
    sing = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sing > 1e-9 * sing[0]))


def _mixture(rng, d, r, n):
    weights = rng.dirichlet(np.ones(r))
    v = np.sqrt(weights)[None, :] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(d, r)))
    diags = v @ _unitary(rng, n)[:r, :]
    return [np.diag(diags[:, s]) for s in range(n)], v


@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("r", [2, 3])
def test_rank_cut_on_padded_diagonal_lists(d, r):
    rng = np.random.default_rng(100 * d + r)
    for _ in range(3):
        ops, v = _diagonal(rng, d, r, r + 1)
        witness = gi_extremality(KrausMap(ops))
        assert witness.rank_required == r * r
        assert witness.extremal == (_cross_rank(v) == r * r)

        ops, v = _mixture(rng, d, r, r + 1)
        m = KrausMap(ops)
        assert not gi_extremality(m).extremal
        terms = mixed_unitary_decompose(m)
        assert terms is not None
        weights = np.array([w for w, _ in terms])
        assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-9
        rebuilt = sum(w * np.outer(np.exp(1j * ph), np.exp(-1j * ph)) for w, ph in terms)
        assert np.linalg.norm(rebuilt - v @ np.conj(v).T) <= 1e-7
