"""The Schur-first formulas of extract_schur_matrix and classify_channel against
the literal formulas they replace: the d^4 basis-image tensor, the
Kronecker-product commutator for tio, the per-operator io, sio and fi tests and
the per-column pair search of expose_hidden_coherence. The references live here
only. Also the structural guards of the Schur path: eigh calls and memory."""

import tracemalloc

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
    schur_map,
)
from cohkit import classify
from cohkit.channels import _diagonal_schur
from cohkit.classify import _image_norms
from cohkit.linalg import dagger, frobenius

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


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("shared", [False, True])
def test_one_off_diagonal_entry_at_the_extraction_threshold(factor, shared):
    # one off-diagonal entry y with |y|^2 = factor * abs_eps * d. In an operator of its own the
    # residual is |y|^2 itself: A exists at 1/2, and at 2 the entry alone decides None. Beside a
    # diagonal (shared) the cross term tr(Gx Gy) puts the residual far above |y|^2, and the full
    # residual rule answers None at 1/2 as well
    d = 4
    rng = np.random.default_rng(10 * shared + int(2 * factor))
    ops = [np.sqrt(0.5) * k for k in _diagonal(rng, d, 2, 2)[0]]
    y = np.zeros((d, d), dtype=complex)
    y[0, 1] = np.sqrt(factor * DEFAULT_TOL.abs_eps * d) * np.exp(2j * np.pi * rng.random())
    if shared:
        ops[0] = ops[0] + y
    else:
        ops.append(y)
    m = KrausMap(ops)
    ref = _ref_extract(m)
    got = extract_schur_matrix(m)
    assert (got is None) == (ref is None) == (shared or factor > 1.0)
    if ref is not None:
        assert np.max(np.abs(got.matrix - ref.matrix)) <= 1e-12
    assert classify_channel(m).sgi == (ref is not None)


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


def _ref_image_norms(m):
    # norms of the off-diagonal part of map(|i><i|) and of map(|i><i|) - |i><i|, from the d^4 tensor
    images = _ref_images(m)
    off, moved = [], []
    for i in range(m.dim):
        img = images[i, :, i, :]
        target = np.zeros_like(img)
        target[i, i] = 1.0
        off.append(frobenius(img - np.diag(np.diag(img))))
        moved.append(frobenius(img - target))
    return np.array(off), np.array(moved)


@st.composite
def sparse_channels(draw, tol=DEFAULT_TOL):
    """Lists on random supports: entries on a random pattern (diagonal, or of a label map, or
    anywhere), whole rows and columns zeroed, operators that are all zero, and entries of exactly
    +-abs_eps beside exact zeros."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(["diagonal", "label_maps", "pattern"]))
    if base == "diagonal":
        ops, _ = _diagonal(rng, d, int(rng.integers(1, n + 1)), n)
    elif base == "label_maps":
        ops = _label_maps(rng, d, n, bool(rng.integers(2)))
    else:
        ops = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.random((d, d)) < rng.random()) for _ in range(n)]
    ops = [k.astype(complex) for k in ops]
    tiny = []
    for k in ops:
        k[rng.random(d) < draw(st.sampled_from([0.0, 0.3])), :] = 0.0
        k[:, rng.random(d) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        if rng.random() < 0.2:
            k[:] = 0.0
        tiny.append(rng.random((d, d)) < draw(st.sampled_from([0.0, 0.2])))
        k[tiny[-1]] = 0.0
    # scaled before the tiny entries go in, which then move sum K^dag K by about 1e-8 at most
    top = float(np.linalg.eigvalsh(sum(np.conj(k).T @ k for k in ops))[-1])
    if top > 0.9:
        ops = [k * np.sqrt(0.9 / top) for k in ops]
    for k, at in zip(ops, tiny):
        k[at] = tol.abs_eps * rng.choice([1.0, -1.0, 1j, -1j], size=int(np.sum(at)))
    return KrausMap(ops, LOOSE), _hamiltonian(rng, d)


@settings(max_examples=300, deadline=None)
@given(sparse_channels())
def test_support_kernel_matches_image_tensor(case):
    m, h = case
    t = np.stack(m.kraus)
    off, moved = _image_norms(t, np.any(t != 0.0, axis=0), classify._one_per_column(t))
    ref_off, ref_moved = _ref_image_norms(m)
    assert np.allclose(off, ref_off, rtol=1e-12, atol=1e-15)
    assert np.allclose(moved, ref_moved, rtol=1e-12, atol=1e-15)
    ref = _ref_flags(m, h)
    report = classify_channel(m, h)
    assert {flag: getattr(report, flag) for flag in ref} == ref


@pytest.mark.parametrize("d", [1, 2, 5])
def test_zero_map_classifies(d):
    # no entry is live: every support is empty, and the dio maximum runs over none
    m = schur_map(np.zeros((d, d)))
    report = classify_channel(m, _hamiltonian(np.random.default_rng(d), d))
    assert report.io and report.fi and report.sio and report.sgi and report.mio and report.dio and report.tio
    assert not report.gi
    assert np.all(report.schur.matrix == 0.0)


@st.composite
def diagonal_lists(draw):
    """Diagonal Kraus lists with d <= 8 and 1 <= n <= d + 2 operators of rank r <= min(n, d): padded
    lists (n > r), lists with n > d, rows of zeros (zero diagonal entries) and all-zero operators;
    unit-diagonal (gi) or with the diagonal of A in [0, 1]."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, d + 2))
    r = draw(st.integers(1, min(n, d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if draw(st.booleans()):
        v *= rng.uniform(0.0, 1.0, size=(d, 1)) * (rng.random((d, 1)) > draw(st.sampled_from([0.0, 0.3])))
    diags = v @ _unitary(rng, n)[:r, :]
    diags[:, rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return KrausMap([np.diag(diags[:, s]) for s in range(n)])


def _diagonal_schur_by_eigh(calls):
    # _diagonal_schur's A from the Kraus diagonals x, its eigenpairs from the eigh of
    # SchurMatrix's PSD check; each call appends x's shape to calls
    def build(x, tol):
        calls.append(x.shape)
        try:
            return SchurMatrix(np.einsum("si,sj->ij", x, np.conj(x)), tol)
        except ValueError:
            return None

    return build


@settings(max_examples=300, deadline=None)
@given(diagonal_lists())
def test_factor_eigenpairs_match_eigh(m):
    d = m.dim
    sm = extract_schur_matrix(m)
    assert sm is not None  # A = V V^dag with rows of V of norm at most 1
    x = np.diagonal(m.kraus, axis1=1, axis2=2)
    a = np.einsum("si,sj->ij", x, np.conj(x))
    assert np.array_equal(sm.matrix, a)
    w, v = sm.eigen
    assert w.shape == (d,) and np.all(np.diff(w) >= 0.0)
    assert not (w.flags.writeable or v.flags.writeable or sm.matrix.flags.writeable)
    assert frobenius(dagger(v) @ v - np.eye(d)) <= DEFAULT_TOL.abs_eps * d
    assert frobenius((v * w) @ dagger(v) - a) <= DEFAULT_TOL.abs_eps * d
    ref = SchurMatrix(a)
    assert len(schur_map(sm).kraus) == len(schur_map(ref).kraus)
    h = _hamiltonian(np.random.default_rng(d), d)
    report = classify_channel(m, h)
    # the builder that the diagonal path uses, on a fresh list: m already holds the SVD's A
    calls = []
    fresh = KrausMap(m.kraus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cohkit.channels._diagonal_schur", _diagonal_schur_by_eigh(calls))
        by_eigh = classify_channel(fresh, h)
        triple_by_eigh = _triple(fresh) if by_eigh.gi else None
    assert calls == [(len(m.kraus), d)]  # one build, shared by classify_channel and gi_extremality
    assert all(getattr(report, f) == getattr(by_eigh, f) for f in ("io", "fi", "gi", "sgi", "sio", "mio", "dio", "tio"))
    assert (_triple(m) if report.gi else None) == triple_by_eigh


def _triple(m):
    wit = gi_extremality(m)
    return wit.extremal, wit.rank_found, wit.rank_required


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("d", [4, 32])
def test_eigh_of_order_d_only_for_a_given_matrix(monkeypatch, d):
    # a Kraus list's A takes its eigenpairs from the SVD of the diagonals, so only a given A is
    # eigendecomposed at order d; the peel carries each remainder as its kept eigenpairs
    rng = np.random.default_rng(d)
    ops, v = _diagonal(rng, d, 3, 4)
    m = KrausMap(ops)
    mixture = KrausMap(_mixture(rng, d, 2, 3)[0])
    calls = _count_eigh(monkeypatch)
    gi_extremality(m)
    assert calls == []
    calls.clear()
    schur_map(SchurMatrix(v @ np.conj(v).T))
    assert calls == [(d, d)]
    calls.clear()
    # two terms: the first peel reads the SVD's eigenpairs, and the rank-1 remainder is the 2 x 2
    # eigh of the peeled factor; the descent's eighs are of order at most the rank too
    assert len(mixed_unitary_decompose(mixture)) == 2
    assert calls and all(c[0] <= 2 for c in calls)


def test_diagonal_list_memory_at_d64():
    # the Schur path never builds a d x d x d tensor: 3 * 64^3 complex entries would be 12 MiB
    rng = np.random.default_rng(64)
    m = KrausMap(_diagonal(rng, 64, 3, 3)[0])
    h = _hamiltonian(rng, 64)
    tracemalloc.start()
    try:
        classify_channel(m, h)
        gi_extremality(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@st.composite
def exactly_diagonal_lists(draw, tol=DEFAULT_TOL):
    """diagonal_lists' lists, with A's diagonal moved to 1 + c * abs_eps * d on some entries,
    c in {-2, -0.5, 0.5, 2}: gi and sgi on either side of their thresholds."""
    t = draw(diagonal_lists()).kraus
    d = t.shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c = rng.choice([-2.0, -0.5, 0.5, 2.0], size=d) * (rng.random(d) < 0.5)
        t = t * np.sqrt(1.0 + c * tol.abs_eps * d)[None, None, :]
    return KrausMap(t, LOOSE)


def _outcome(f, m):
    # what f(m) returns, or the error it raises
    try:
        return f(m)
    except (ValueError, classify.BudgetExhaustedError) as err:
        return type(err), str(err)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(exactly_diagonal_lists(), st.booleans())
def test_diagonal_path_matches_tensor_path(m, with_hamiltonian):
    # classify_channel, gi_extremality and mixed_unitary_decompose answer an exactly diagonal list from
    # its A; the tensor path gives the same bits on the same list. Its references run on a twin of m,
    # so that they build their own A: m keeps the diagonal path's, which extract_schur_matrix hands back
    d = m.dim
    live = m.kraus.any(axis=0)
    assert classify._schur_form(m, DEFAULT_TOL)[1] is None
    rng = np.random.default_rng(d)
    h = _hamiltonian(rng, d) if with_hamiltonian else None
    twin = KrausMap(m.kraus, m.tol)
    got, ref = classify_channel(m, h), classify._classify_tensor(twin, live, h, DEFAULT_TOL)
    assert ref.schur is not got.schur or got.schur is None
    flags = ("io", "fi", "gi", "sgi", "sio", "mio", "dio", "tio")
    assert [getattr(got, f) for f in flags] == [getattr(ref, f) for f in flags]
    assert got.io and got.fi and got.sio and got.mio and got.dio and got.tio is (True if h else None)
    assert (got.schur is None) == (ref.schur is None)
    if got.schur is not None:
        assert _same_bits(got.schur.matrix, ref.schur.matrix)
        assert all(_same_bits(a, b) for a, b in zip(got.schur.eigen, ref.schur.eigen))
        if np.any(np.diag(got.schur.matrix).real == 0.0):
            assert not got.gi  # A_ii = 0: a zero column is not fixed
    with pytest.raises(ValueError):
        classify_channel(m, _hamiltonian(rng, d + 1))

    # a decomposition that runs out of budget takes about 0.3 s at d >= 4, twice here
    decompose = got.gi and d <= 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_schur_form", lambda m, tol: (None, m.kraus.any(axis=0)))  # the tensor path
        ref_witness = _outcome(gi_extremality, twin)
        ref_terms = _outcome(mixed_unitary_decompose, twin) if decompose else None
    witness = _outcome(gi_extremality, m)
    if isinstance(witness, tuple):
        assert witness == ref_witness and not got.gi
        return
    fields = ("extremal", "rank_found", "rank_required")
    assert [getattr(witness, f) for f in fields] == [getattr(ref_witness, f) for f in fields]
    assert (witness.witness_vectors is None) == (ref_witness.witness_vectors is None)
    if witness.witness_vectors is not None:
        assert all(_same_bits(a, b) for a, b in zip(witness.witness_vectors, ref_witness.witness_vectors))
    if not decompose:
        return
    terms = _outcome(mixed_unitary_decompose, m)
    if terms is None or isinstance(terms, tuple):
        assert terms == ref_terms
    else:
        assert len(terms) == len(ref_terms)
        assert all(w == rw and _same_bits(p, rp) for (w, p), (rw, rp) in zip(terms, ref_terms))


@pytest.mark.parametrize("off_diagonal, image_norm_calls", [(0.0, 0), (1e-12, 1)])
def test_image_kernel_runs_only_for_lists_off_the_diagonal(off_diagonal, image_norm_calls):
    # at d = 32 a diagonal list never reaches the Kraus-tensor kernel; one entry of 1e-12 off the
    # diagonal, far inside abs_eps, sends the list down the tensor path, with the same flags
    rng = np.random.default_rng(32)
    ops, _ = _diagonal(rng, 32, 3, 4)
    ops[1][4, 7] = off_diagonal
    m = KrausMap(ops)
    h = _hamiltonian(rng, 32)
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        mp.setattr(classify, "_image_norms", lambda *args: calls.append(1) or _image_norms(*args))
        report = classify_channel(m, h)
        assert len(calls) == image_norm_calls
        gi_extremality(m)
        assert len(calls) == 2 * image_norm_calls
    flags = (report.io, report.gi, report.sgi, report.fi, report.sio, report.mio, report.dio, report.tio)
    assert all(flag is True for flag in flags)  # Python bools, as the CLI's JSON report needs


def _incoherent_list(rng, d, family):
    # three operators with one nonzero per column: a mixture of permutations with phases, one shared
    # permutation with unit columns (sio), or one form whose fibres of 2 or 3 columns land in one row
    # each, their columns orthonormal across operators
    ops = np.zeros((3, d, d), dtype=complex)
    if family == "permmix":
        weights = rng.dirichlet(np.ones(3))
        for s in range(3):
            ops[s, rng.permutation(d), np.arange(d)] = np.sqrt(weights[s]) * np.exp(2j * np.pi * rng.random(d))
    elif family == "sio":
        ops[:, rng.permutation(d), np.arange(d)] = _unitary(rng, 3)[:, :1] * np.exp(2j * np.pi * rng.random(d))
    else:
        labels, start = rng.permutation(d), 0
        for row in rng.permutation(d):
            cols = labels[start : start + int(rng.integers(2, 4))]
            ops[:, row, cols] = _unitary(rng, 3)[:, : len(cols)]
            start += len(cols)
    return ops


@pytest.mark.parametrize("family, gram_calls", [("permmix", 0), ("sio", 0), ("fi", 1)])
def test_incoherent_lists_read_their_images_from_the_support(family, gram_calls):
    # at d = 32 a list with one nonzero per operator column forms no image Gram; only a row of one
    # operator with two nonzeros (a fibre of the one-form list) runs dio's row Grams. An entry of
    # 1e-12 in a second row of one operator column, far inside abs_eps, sends the list down the
    # Gram path, images and rows, with the same flags
    rng = np.random.default_rng(32)
    ops = _incoherent_list(rng, 32, family)
    h = _hamiltonian(rng, 32)
    col = int(np.flatnonzero(ops[1].any(axis=0))[0])
    row = int(np.flatnonzero(ops[1].any(axis=1) & (ops[1][:, col] == 0.0))[0])
    for tiny, calls_expected in ((0.0, gram_calls), (1e-12, 2)):
        ops[1][row, col] = tiny
        m = KrausMap(ops)
        assert classify._one_per_column(m.kraus) == (tiny == 0.0)
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            grams = classify._support_grams
            mp.setattr(classify, "_support_grams", lambda *args: calls.append(1) or grams(*args))
            report = classify_channel(m, h)
        assert len(calls) == calls_expected
        ref = _ref_flags(m, h)
        assert {flag: getattr(report, flag) for flag in ref} == ref
        assert all(type(getattr(report, flag)) is bool for flag in ref)  # as the CLI's JSON report needs
        assert (report.io, report.fi, report.sio, report.mio, report.dio) == (True, family != "permmix", family != "fi", True, True)


@st.composite
def exactly_incoherent_lists(draw, tol=DEFAULT_TOL):
    """Lists with one nonzero per operator column, sub-normalized: label maps (_label_maps), one
    random row per column of each operator, or _fixed_edge's pair with its move on one row (a
    diagonal operator and one entry off the diagonal, at the gi threshold's edge). Some columns are
    then scaled by sqrt(1 + c * abs_eps * d), c in {-2, -0.5, 0.5, 2}: gi on either side of its
    threshold."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(["label_maps", "rows", "fixed_edge"]))
    if base == "label_maps":
        t = np.array(_label_maps(rng, d, n, bool(rng.integers(2))))
    elif base == "rows":
        t = np.zeros((n, d, d), dtype=complex)
        for s in range(n):
            t[s, rng.integers(0, d, size=d), np.arange(d)] = rng.normal(size=d) + 1j * rng.normal(size=d)
        t *= np.sqrt(rng.uniform(0.25, 1.0) / np.linalg.eigvalsh(np.einsum("sai,saj->ij", t.conj(), t))[-1])
    else:
        t = np.array(_fixed_edge(rng, d, *rng.choice([0.5, 0.8], size=2), 1, tol))
    if draw(st.booleans()):
        c = rng.choice([-2.0, -0.5, 0.5, 2.0], size=d) * (rng.random(d) < 0.5)
        t = t * np.sqrt(1.0 + c * tol.abs_eps * d)[None, None, :]
    return KrausMap(t, LOOSE), _hamiltonian(rng, d)


@settings(max_examples=300, deadline=None)
@given(exactly_incoherent_lists())
def test_incoherent_images_match_image_tensor(case):
    # the support shortcut against the d^4 image tensor and against the Gram path on the same list
    m, h = case
    t = m.kraus
    live = t.any(axis=0)
    assert classify._one_per_column(t)
    off, moved = _image_norms(t, live, True)
    ref_off, ref_moved = _ref_image_norms(m)
    assert np.all(off == 0.0) and np.all(ref_off == 0.0)
    assert np.allclose(moved, ref_moved, rtol=1e-12, atol=1e-15)
    gram_off, gram_moved = _image_norms(t, live, False)
    assert np.all(gram_off == 0.0) and np.allclose(moved, gram_moved, rtol=1e-12, atol=1e-15)
    ref = _ref_flags(m, h)
    report = classify_channel(m, h)
    assert {flag: getattr(report, flag) for flag in ref} == ref


@st.composite
def schur_matrices(draw):
    """SchurMatrix inputs with d <= 6: mixtures of up to d + 1 diagonal unitaries, unit-diagonal
    matrices of rank r <= d, and matrices of rank r with the diagonal in [0.2, 0.9] (sgi, not gi)."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixture", "unit", "sgi"]))
    if kind == "mixture":
        k = draw(st.integers(1, d + 1))
        u = np.exp(2j * np.pi * rng.random((k, d)))
        a = np.einsum("k,ki,kj->ij", rng.dirichlet(np.ones(k)), u, np.conj(u))
        np.fill_diagonal(a, 1.0)
        return SchurMatrix(a)
    r = draw(st.integers(1, d))
    v = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "sgi":
        v *= np.sqrt(rng.uniform(0.2, 0.9, size=(d, 1)))
    return SchurMatrix(v @ np.conj(v).T)


def _projector(phases):
    u = np.exp(1j * phases)
    return np.outer(u, np.conj(u))


@settings(max_examples=200, deadline=None)
@given(schur_matrices(), st.booleans())
def test_schur_matrix_answers_as_its_diagonal_list(sm, with_hamiltonian):
    # a SchurMatrix is the channel itself: the three functions give it the answers of schur_map's
    # diagonal list, whose A is rebuilt from A's eigenpairs and decomposed from an SVD of its diagonals
    d = sm.dim
    km = schur_map(sm)
    h = _hamiltonian(np.random.default_rng(d), d) if with_hamiltonian else None
    got, ref = classify_channel(sm, h), classify_channel(km, h)
    flags = ("io", "fi", "gi", "sgi", "sio", "mio", "dio", "tio")
    assert [getattr(got, f) for f in flags] == [getattr(ref, f) for f in flags]
    assert got.schur is sm and ref.schur is not None
    witness, ref_witness = _outcome(gi_extremality, sm), _outcome(gi_extremality, km)
    if isinstance(witness, tuple):
        assert witness == ref_witness and not got.gi
        return
    fields = ("extremal", "rank_found", "rank_required")
    assert [getattr(witness, f) for f in fields] == [getattr(ref_witness, f) for f in fields]
    # every peel reads A alone: the unimodular search fixes the phase of each kept eigenvector before
    # its restarts draw their directions, so the eigh of A and the SVD of the diagonals give one
    # mixture, up to a global phase per term, wherever A's kept spectrum has no repeated eigenvalue
    # (there A does not fix its eigenvectors). Round-off in the peeling weights grows with A's
    # condition number on its range
    w = sm.eigen[0]
    cut = DEFAULT_TOL.rank_cut(float(w[-1]))
    kept = w[w > cut]
    if np.any(np.diff(kept) <= cut):
        return
    bound = 1e-12 * w[-1] / kept.min()
    if d > 3 and len(kept) > 1:
        # above d = 3 a remainder may exhaust the search, 64 restarts of up to 2,000 projections, on
        # both sides. The representation reaches the search only through the first step's eigenpairs,
        # and every later step's come from hermitian_eigen on both sides: the seeds that the same rng
        # draws from the phased factors of A's eigh and of the diagonals' SVD must agree
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        (_, x), (_, ref_x) = (classify._phased_factor(*e, len(kept), DEFAULT_TOL) for e in (sm.eigen, ref.schur.eigen))
        for _ in range(4):
            z = classify._descent_seed(x, rng, DEFAULT_TOL)
            ref_z = classify._descent_seed(ref_x, ref_rng, DEFAULT_TOL)
            assert np.abs(np.outer(z, np.conj(z)) - np.outer(ref_z, np.conj(ref_z))).max() <= bound
        return
    terms, ref_terms = _outcome(mixed_unitary_decompose, sm), _outcome(mixed_unitary_decompose, km)
    if not isinstance(terms, list):
        assert terms == ref_terms
        return
    assert isinstance(ref_terms, list) and len(terms) == len(ref_terms)
    for (weight, phases), (ref_weight, ref_phases) in zip(terms, ref_terms):
        assert abs(weight - ref_weight) <= bound
        assert np.abs(_projector(phases) - _projector(ref_phases)).max() <= bound


@pytest.mark.parametrize("d", [1, 4, 32])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_gi_reads_the_diagonal_of_a(d, sign, c):
    # gi is max |A_ii - 1| <= abs_eps * d for a SchurMatrix and a diagonal list alike. Above 1, A_ii
    # beyond abs_eps fails SchurMatrix's diagonal check: the list is then neither sgi nor gi
    rng = np.random.default_rng(d)
    v = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[-1] *= np.sqrt(1.0 + sign * c * DEFAULT_TOL.abs_eps * d)  # A = V V^dag, A_(d-1)(d-1) moved
    km = KrausMap([np.diag(x) for x in v.T], LOOSE)
    sgi = sign < 0 or c * d <= 1
    gi = sgi and c <= 1
    report = classify_channel(km)
    assert (report.sgi, report.gi) == (sgi, gi)
    if sgi:
        assert classify_channel(SchurMatrix(v @ np.conj(v).T)).gi == gi
    else:
        with pytest.raises(ValueError, match="diagonal must lie in"):
            SchurMatrix(v @ np.conj(v).T)


def test_one_schur_build_per_list_and_tolerance(monkeypatch):
    # classify_channel, gi_extremality and mixed_unitary_decompose on one fresh diagonal list at d = 32
    # build A once, with one SVD of the d x n diagonals, and later calls hand back that SchurMatrix
    rng = np.random.default_rng(3232)
    d, n = 32, 3
    m = KrausMap(_mixture(rng, d, 2, n)[0])
    h = _hamiltonian(rng, d)
    builds, factor_svds = [], []
    svd = np.linalg.svd

    def build(x, tol):
        builds.append(x.shape)
        return _diagonal_schur(x, tol)

    monkeypatch.setattr("cohkit.channels._diagonal_schur", build)
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: factor_svds.append(np.shape(a)) or svd(a, *args, **kw))
    report = classify_channel(m, h)
    assert not gi_extremality(m).extremal
    assert len(mixed_unitary_decompose(m)) == 2
    assert builds == [(n, d)] and factor_svds.count((d, n)) == 1
    assert classify_channel(m).schur is report.schur
    assert extract_schur_matrix(m) is report.schur
    assert builds == [(n, d)] and factor_svds.count((d, n)) == 1


@pytest.mark.parametrize("loose_first", [False, True])
def test_schur_answers_are_kept_per_tolerance(loose_first):
    # A_ii = 1 + 1e-7 fails SchurMatrix's diagonal check under DEFAULT_TOL and passes under LOOSE: one
    # list answers each tol by its own rule, in either order, and its repr, == and hash do not change
    m = KrausMap([np.sqrt(1.0 + 1e-7) * np.eye(3)], LOOSE)
    text, key = repr(m), hash(m)
    for tol in (LOOSE, DEFAULT_TOL) if loose_first else (DEFAULT_TOL, LOOSE):
        report = classify_channel(m, tol=tol)
        assert (report.sgi, report.gi) == ((True, True) if tol == LOOSE else (False, False))
        assert extract_schur_matrix(m, tol) is report.schur
    assert classify_channel(m, tol=LOOSE).schur is not None and classify_channel(m).schur is None
    assert repr(m) == text == f"KrausMap(kraus={m.kraus!r})"
    assert hash(m) == key and m == m and m != KrausMap(m.kraus, LOOSE)


@pytest.mark.parametrize("loose_first", [False, True])
def test_extremality_kept_per_schur_matrix_and_tolerance(monkeypatch, loose_first):
    # gi_extremality's n^2 x d SVD runs once per A and tol: on a fresh d = 32 mixture list the
    # decomposition and a second gi_extremality read the first call's witness, which is read-only
    rng = np.random.default_rng(3233)
    d = 32
    m = KrausMap(_mixture(rng, d, 2, 3)[0])
    rank_tests = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        rank_tests.append(np.shape(a) == (4, d))  # the 2^2 x d cross-term rows of A's two Kraus diagonals
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted)
        witness = gi_extremality(m)
        assert len(mixed_unitary_decompose(m)) == 2
        assert gi_extremality(m) is witness
    assert rank_tests.count(True) == 1 and not witness.extremal
    twin = gi_extremality(KrausMap(m.kraus))
    assert twin is not witness and (twin.rank_found, twin.rank_required) == (witness.rank_found, 4)
    assert isinstance(witness.witness_vectors, tuple) and len(witness.witness_vectors) == 4
    assert not any(vec.flags.writeable for vec in witness.witness_vectors)
    with pytest.raises(ValueError):
        witness.witness_vectors[0][0] = 0.0
    with pytest.raises(AttributeError):
        witness.extremal = True

    # test_tolerance's threshold construction, A = (1 - e) u u^dag + e I at d = 3 with the ratio 1e-7
    # between the two rel_eps: LOOSE keeps one eigenvalue (rank 1, extremal), DEFAULT_TOL all three
    # (nine cross terms in C^3, not extremal), in either order on one SchurMatrix
    d, ratio = 3, 1e-7
    e = ratio * d / (1.0 + ratio * (d - 1))
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
    sm = SchurMatrix((1.0 - e) * np.outer(u, np.conj(u)) + e * np.eye(d))
    text, key = repr(sm), hash(sm)
    expected = {LOOSE: (True, 1, 1), DEFAULT_TOL: (False, 3, 9)}
    first = {}
    for tol in (LOOSE, DEFAULT_TOL) if loose_first else (DEFAULT_TOL, LOOSE):
        first[tol] = gi_extremality(sm, tol)
        assert (first[tol].extremal, first[tol].rank_found, first[tol].rank_required) == expected[tol]
    for tol in expected:
        assert gi_extremality(sm, tol) is first[tol]
        assert gi_extremality(SchurMatrix(sm.matrix), tol) is not first[tol]
    assert repr(sm) == text == f"SchurMatrix(matrix={sm.matrix!r})"
    assert hash(sm) == key and sm == sm and sm != SchurMatrix(sm.matrix)

    # the gi check runs before the kept answer is read: A_ii = 1 + 1e-7 is gi under LOOSE only
    over = SchurMatrix((1.0 + 1e-7) * np.eye(d), LOOSE)
    assert gi_extremality(over, LOOSE).rank_required == d * d  # the dephasing channel, not extremal
    for _ in range(2):
        with pytest.raises(ValueError, match="unit-diagonal"):
            gi_extremality(over)
