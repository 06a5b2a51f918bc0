"""The Schur-first formulas of extract_schur_matrix and classify_channel against
the literal formulas they replace: the d^4 basis-image tensor, the
Kronecker-product commutator for tio, the per-operator io, sio and fi tests and
the per-column pair search of expose_hidden_coherence. The references live here
only."""

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
    expose_hidden_coherence,
    extract_schur_matrix,
    gi_extremality,
    is_incoherent_operator,
    mixed_unitary_decompose,
    same_form,
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
    sio = all(is_incoherent_operator(k, tol) and is_incoherent_operator(np.conj(k).T, tol) for k in m.kraus)
    fi = bool(io) and same_form(m.kraus, tol)
    flags = {"io": bool(io), "fi": fi, "sio": sio, "mio": mio, "dio": dio, "gi": gi, "sgi": schur is not None}
    return {**flags, "tio": tio}


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


def _label_maps(rng, d, n, shared):
    # operators sending column j to row f_s(j) with a phase, some columns zeroed: incoherent,
    # of one form when f_s is shared, with incoherent adjoints when f_s is a permutation.
    # Dividing by the largest fibre keeps sum K^dag K <= 1; the random overall scale keeps
    # norms built from the threshold entries off exact ties with abs_eps * d (one operator
    # with weight 1 and a fibre of 2 puts the Schur residual exactly on it)
    weights = rng.dirichlet(np.ones(n)) * rng.uniform(0.25, 1.0)
    labels = rng.permutation(d) if rng.random() < 0.5 else rng.integers(0, d, size=d)
    out = []
    for s in range(n):
        f = labels if shared else (rng.permutation(d) if rng.random() < 0.5 else rng.integers(0, d, size=d))
        k = np.zeros((d, d), dtype=complex)
        k[f, np.arange(d)] = np.sqrt(weights[s] / np.max(np.bincount(f))) * np.exp(2j * np.pi * rng.random(d))
        out.append(k * (rng.random((1, d)) > 0.2))
    return out


def _fixed_edge(rng, d, delta, e2, spread, tol=DEFAULT_TOL):
    """Basis projector i moved at the gi threshold: map(|i><i|) = (1 - delta)|i><i| + |c><c|.

    c lives on `spread` other rows, |c|^2 = e2; delta and e2 are given in units of
    abs_eps * d. At 0.5 and 0.8 each alone is within it, while the norm of the move,
    sqrt(delta^2 + e2^2), and the part of it off the diagonal lie on either side of it."""
    i, *rows = rng.choice(d, size=spread + 1, replace=False)
    delta, e2 = delta * tol.abs_eps * d, e2 * tol.abs_eps * d
    k0 = np.diag(np.exp(2j * np.pi * rng.random(d)))
    k0[i, i] *= np.sqrt(1.0 - delta)
    k1 = np.zeros((d, d), dtype=complex)
    k1[rows, i] = np.sqrt(e2 / len(rows)) * np.exp(2j * np.pi * rng.random(len(rows)))
    return [k0, k1]


def _at_threshold(rng, ops, factor, tol=DEFAULT_TOL):
    """Add entries of modulus factor * abs_eps at random places, at the masks' threshold."""
    d = ops[0].shape[0]
    return [k + factor * tol.abs_eps * np.exp(2j * np.pi * rng.random((d, d))) * (rng.random((d, d)) < 0.3) for k in ops]


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


FAMILIES = (
    "cptp",
    "cptp_padded",
    "diagonal_padded",
    "damping",
    "noise_half",
    "noise_double",
    "label_maps_half",
    "label_maps_double",
    "one_form_half",
    "one_form_double",
    "fixed_edge",
)


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
    elif family.startswith(("label_maps", "one_form")):
        ops = _at_threshold(
            rng, _label_maps(rng, d, n, family.startswith("one_form")), 0.5 if family.endswith("half") else 2.0
        )
    elif family == "fixed_edge":
        ops = _fixed_edge(rng, d, *rng.choice([0.5, 0.8], size=2), min(d - 1, int(rng.integers(1, 3))))
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


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("spread", [1, 2])
@pytest.mark.parametrize("delta, e2", [(0.5, 0.5), (0.5, 0.8), (0.8, 0.5), (0.8, 0.8)])
def test_gi_at_the_moved_projector_threshold(d, spread, delta, e2):
    # gi holds iff sqrt(delta^2 + e2^2) <= 1; with two rows half of e2^2 lies off the diagonal
    rng = np.random.default_rng(int(10 * d + spread + 100 * delta + 1000 * e2))
    m = KrausMap(_fixed_edge(rng, d, delta, e2, spread), LOOSE)
    gi = classify_channel(m).gi
    assert gi == _ref_flags(m, _hamiltonian(rng, d))["gi"] == (delta**2 + e2**2 <= 1.0)


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


def _ref_expose_pair(m, tol=DEFAULT_TOL):
    # the per-column loop expose_hidden_coherence ran: the first column, then the first
    # pair s1 < s2 of operators hitting it in different rows
    for j in range(m.dim):
        hits = []
        for s, k in enumerate(m.kraus):
            nz = np.flatnonzero(np.abs(k[:, j]) > tol.abs_eps)
            if nz.size:
                hits.append((s, int(nz[0])))
        for (s1, r1), (s2, r2) in ((a, b) for a in hits for b in hits):
            if s1 < s2 and r1 != r2:
                return s1, s2
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.sampled_from([0.0, 0.5, 2.0]),
    st.integers(0, 2**32 - 1),
)
def test_expose_hidden_coherence_matches_column_loop(d, n, shared, factor, seed):
    rng = np.random.default_rng(seed)
    ops = _at_threshold(rng, _label_maps(rng, d, n, shared), factor)
    m = KrausMap(ops, LOOSE)
    if not all(is_incoherent_operator(k) for k in m.kraus):
        with pytest.raises(ValueError):
            expose_hidden_coherence(m)
        return
    got = expose_hidden_coherence(m)
    pair = _ref_expose_pair(m)
    assert (got is None) == (pair is None) == same_form(m.kraus)
    if pair is not None:
        s1, s2 = pair
        root = 1.0 / np.sqrt(2.0)
        want = list(m.kraus)
        want[s1] = root * (m.kraus[s1] + m.kraus[s2])
        want[s2] = root * (m.kraus[s1] - m.kraus[s2])
        assert len(got.kraus) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want))


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
