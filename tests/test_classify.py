import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit import (
    DEFAULT_TOL,
    BudgetExhaustedError,
    Hamiltonian,
    KrausMap,
    SchurMatrix,
    choi_matrix,
    classify_channel,
    expose_hidden_coherence,
    gi_extremality,
    is_incoherent_operator,
    mixed_unitary_decompose,
    same_form,
    schur_map,
)
from cohkit import classify
from cohkit.linalg import Tolerance

from conftest import (
    dephasing,
    rand_cptp,
    rand_fi_map,
    rand_gi_map,
    rand_gi_schur,
    rand_incoherent_not_same_form,
    rand_mixed_unitary_schur,
    rand_sgi_schur,
    rand_sio_map,
)
from exhibits import extremal_nonunitary_gi_kraus, pio_pattern_gap, pio_witness_channel
from oracles import dense_peel, direct_tio_norm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_is_incoherent_operator():
    assert is_incoherent_operator(np.diag([1.0, 2.0]))
    assert is_incoherent_operator(SX)
    assert is_incoherent_operator(np.zeros((2, 2)))
    assert not is_incoherent_operator(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_io_needs_diagonal_pieces_beyond_the_mask():
    # the column (2, 0.9 eps) holds one entry above eps, but the off-diagonal norm
    # of its basis image, 2 * sqrt(2) * 0.9e-9 = 2.5e-9, exceeds eps * d = 2e-9; such an
    # entry needs a construction tolerance that admits sum K^dag K = 4
    k = np.array([[2.0, 0.0], [0.9e-9, 0.0]])
    report = classify_channel(KrausMap([k], Tolerance(10.0)))
    assert is_incoherent_operator(k) and report.sio and not report.io
    assert classify_channel(KrausMap([k / 2.0])).io


def test_same_form():
    assert same_form([np.diag([1.0, 1.0]), np.diag([0.5, -0.5])])
    assert not same_form([SX, SZ])
    # a zeroed column in one operator does not break the shared form
    assert same_form([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])])


def test_identity_channel_flags():
    r = classify_channel(KrausMap([np.eye(3)]), Hamiltonian((0.0, 1.0, 2.5)))
    assert r.io and r.fi and r.gi and r.sgi and r.sio and r.mio and r.dio and r.tio


def test_flip_channel_flags():
    r = classify_channel(KrausMap([SX]), Hamiltonian((0.0, 1.0)))
    assert r.io and r.fi and r.sio and r.mio and r.dio
    assert not r.gi and not r.sgi
    assert r.tio is False


def test_flip_z_mixture_flags():
    for p in (0.1, 0.5, 0.9):
        m = KrausMap([np.sqrt(p) * SX, np.sqrt(1 - p) * SZ])
        r = classify_channel(m, Hamiltonian((0.0, 1.0)))
        assert r.io and r.sio and r.mio and r.dio
        assert not r.fi
        assert not r.gi
        assert r.tio is False


def test_depolarizing_flags():
    m = KrausMap([0.5 * np.eye(2, dtype=complex), 0.5 * SX, 0.5 * SY, 0.5 * SZ])
    r = classify_channel(m, Hamiltonian((0.0, 1.0)))
    assert r.io and not r.fi
    assert r.tio is True
    assert r.mio and r.dio


def test_tio_threshold_follows_tolerance():
    # a rotation by 1e-8 between levels 0 and 1 fails to commute with time translations by a
    # commutator norm c; tio holds iff c <= eps * d^2
    u = np.eye(3, dtype=complex)
    u[:2, :2] = [[np.cos(1e-8), -1j * np.sin(1e-8)], [-1j * np.sin(1e-8), np.cos(1e-8)]]
    h = Hamiltonian((0.0, 1.0, 2.5))
    sop = np.kron(u, np.conj(u))
    gen = -1j * (np.kron(np.diag(h.energies), np.eye(3)) - np.kron(np.eye(3), np.diag(h.energies)))
    c = float(np.linalg.norm(sop @ gen - gen @ sop))
    assert 1e-9 * 9 < c < 1e-6
    m = KrausMap([u])
    assert classify_channel(m, h).tio is False
    assert classify_channel(m, h, tol=Tolerance(2.0 * c / 9)).tio is True
    assert classify_channel(m, h, tol=Tolerance(c / 18)).tio is False


def _ladder_list(rng, d, n, live):
    # n operators, each on one band a - i = k_s and restricted to the entries in live: with
    # E_i = w i every operator shifts every energy by w k_s, so the map commutes with time
    # translations; scaled so that sum K^dag K has top eigenvalue 1/2
    ops = np.zeros((n, d, d), dtype=complex)
    for s in range(n):
        k = int(rng.integers(-(d - 1), d))
        i = np.arange(max(0, -k), min(d, d - k))
        ops[s, i + k, i] = rng.normal(size=len(i)) + 1j * rng.normal(size=len(i))
    ops *= live
    top = np.linalg.eigvalsh(np.einsum("sai,saj->ij", ops.conj(), ops))[-1]
    return ops / np.sqrt(2.0 * top) if top > 0.0 else ops


def _near_tio_threshold(rng, d, n, live, tol=DEFAULT_TOL):
    """A ladder-covariant list on the entries in live plus noise there, scaled so that the direct
    commutator norm is c * eps * d^2 with c in [1/2, 2]; the list, its ladder Hamiltonian and c."""
    h = Hamiltonian(tuple(rng.uniform(0.5, 3.0) * np.arange(d) + rng.uniform(-5.0, 5.0)))
    ops = _ladder_list(rng, d, n, live)
    noise = (rng.normal(size=ops.shape) + 1j * rng.normal(size=ops.shape)) * live
    c = float(rng.uniform(0.5, 2.0))

    def norm(s):
        return direct_tio_norm(KrausMap(ops + s * noise), h)

    s = 1e-8
    # the norm grows as s^p near 0, p = 1 or 2 (2 when the ladder part is zero on live). Where it is
    # round-off only (one live entry, or live entries sharing one energy gap) the noise stops at 1e-3,
    # which keeps sum K^dag K below 1
    p = np.log2(norm(2.0 * s) / norm(s)) if norm(s) > 0.0 else 0.0
    if p > 0.5:
        s = min(s * (c * tol.eps * d * d / norm(s)) ** (1.0 / p), 1e-3)
    return KrausMap(ops + s * noise), h, c


def test_tio_matches_the_direct_commutator_near_its_threshold():
    # ladder-covariant lists with noise at 1/2 to 2 times the tio threshold: the verdict of the QR
    # form equals the direct L x L form's on each. The live entries are all d^2 entries, or fewer
    # than 2n of them (the QR's R is then L x 2n), down to one, where both norms are 0
    rng = np.random.default_rng(21)
    verdicts = []
    for case in range(360):
        d, n = int(rng.integers(2, 13)), int(rng.integers(1, 6))
        live = np.ones((d, d), dtype=bool)
        if case % 6 == 5:
            count = int(rng.integers(1, min(2 * n, d * d + 1)))
            live = (rng.permutation(d * d) < count).reshape(d, d)
            live[0, -1] |= np.count_nonzero(live) == np.count_nonzero(np.diagonal(live))  # not diagonal
        m, h, c = _near_tio_threshold(rng, d, n, live)
        ref = direct_tio_norm(m, h)
        tio = classify_channel(m, h).tio
        assert tio == (ref <= DEFAULT_TOL.eps * d * d), (case, d, n, c, ref)
        verdicts.append((tio, np.count_nonzero(m.kraus.any(axis=0)) < 2 * n))
    assert {v for v, _ in verdicts} == {True, False}
    assert {v for v, small in verdicts if small} == {True, False}


def test_dense_list_tio_memory_at_d128():
    # the direct commutator of a dense list at d = 128 is a d^2 x d^2 complex array, 4.3 GB; the QR
    # form's largest array is d^2 x 2n, and the basis-projector images are d x d x d (32 MiB)
    rng = np.random.default_rng(128)
    m = rand_cptp(rng, 128, 3)
    h = Hamiltonian(tuple(np.sort(rng.uniform(0.0, 10.0, size=128))))
    tracemalloc.start()
    try:
        report = classify_channel(m, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tio is False and not report.io and report.schur is None
    assert peak < 128 * 2**20


def test_gi_family_flags():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(5):
            m = rand_gi_map(rng, d)
            r = classify_channel(m, Hamiltonian(tuple(float(x) for x in range(d))))
            assert r.gi and r.sgi and r.io and r.fi and r.sio
            assert r.mio and r.dio and r.tio
            assert r.schur is not None


def test_sgi_family_flags():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = schur_map(rand_sgi_schur(rng, 3))
        r = classify_channel(m)
        assert r.sgi and not r.gi


def test_fi_family_flags():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(10):
            m = rand_fi_map(rng, d)
            r = classify_channel(m)
            assert r.io and r.fi


def test_sio_family_flags():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rand_sio_map(rng, 4)
        r = classify_channel(m)
        assert r.io and r.sio


def test_dephasing_channel_flags():
    r = classify_channel(dephasing(3))
    assert r.gi and r.io and r.fi
    assert r.schur is not None
    assert np.max(np.abs(r.schur.matrix - np.eye(3))) < 1e-9


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian((1.0, 1.0))
    # each energy is finite, but the gap E_i - E_a that tio reads overflows
    with pytest.raises(ValueError, match="finite range"):
        Hamiltonian((1e308, -1e308, 0.0))
    with pytest.raises(ValueError):
        classify_channel(KrausMap([np.eye(2)]), Hamiltonian((0.0, 1.0, 2.0)))


def test_expose_hidden_coherence_finds_witness():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        for _ in range(10):
            m = rand_incoherent_not_same_form(rng, d)
            w = expose_hidden_coherence(m)
            assert w is not None
            assert any(not is_incoherent_operator(k) for k in w.kraus)
            assert np.max(np.abs(choi_matrix(w) - choi_matrix(m))) < 1e-10 * d


def test_expose_hidden_coherence_none_for_fi():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rand_fi_map(rng, 3)
        assert expose_hidden_coherence(m) is None


def test_expose_hidden_coherence_rejects_coherent_rep():
    h = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        expose_hidden_coherence(KrausMap([h, np.array([[0.5, -0.5], [-0.5, 0.5]])]))


def test_diagonal_unitary_channel_is_extremal():
    m = KrausMap([np.diag(np.exp(1j * np.array([0.1, 0.7, 2.0])))])
    w = gi_extremality(m)
    assert w.extremal and w.rank_required == 1


def test_qubit_gi_never_extremal_beyond_unitary():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rand_gi_schur(rng, 2)
        m = schur_map(a)
        w = gi_extremality(m)
        if w.rank_required > 1:
            assert not w.extremal


def test_extremal_nonunitary_construction():
    m = extremal_nonunitary_gi_kraus(4)
    r = classify_channel(m)
    assert r.gi
    w = gi_extremality(m)
    assert w.extremal and w.rank_required == 4 and w.rank_found == 4
    assert w.witness_vectors is not None and len(w.witness_vectors) == 4


def test_gi_extremality_rejects_non_gi():
    with pytest.raises(ValueError):
        gi_extremality(KrausMap([SX]))


def test_gi_extremality_reads_gi_and_a_without_classifying(monkeypatch):
    # Kraus lists that are diagonal up to off-diagonal entries of at most eps: gi and A come from
    # extract_schur_matrix and the basis-image norms alone, as classify_channel gives them, and the
    # rest of the tensor classification is not run
    rng = np.random.default_rng(19)
    cases = []
    for d in (2, 3, 5, 8, 16):
        for _ in range(6):
            a = rand_gi_schur(rng, d, int(rng.integers(1, d + 1)))
            if rng.random() < 0.3:
                a = rand_sgi_schur(rng, d)  # diagonal below 1: sgi, not gi
            ops = np.array(schur_map(a).kraus)
            at = rng.random(ops.shape) < 0.1
            at[:, np.arange(d), np.arange(d)] = False
            at[0, 0, d - 1] = True  # at least one entry off the diagonal
            scale = DEFAULT_TOL.eps * rng.choice([1e-3, 0.5, 1.0])
            ops[at] = scale * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, int(at.sum())))
            cases.append(KrausMap(ops))
    cases.append(KrausMap([SX]))  # not a Schur channel
    reports = [classify_channel(m) for m in cases]
    assert 0 < sum(r.gi for r in reports) < len(cases)

    def unreachable(*args):
        raise AssertionError("gi_extremality ran the tensor classification")

    monkeypatch.setattr(classify, "_one_form", unreachable)  # read by classify_channel's tensor flags alone
    for m, report in zip(cases, reports):
        fresh = KrausMap(m.kraus, m.tol)  # m keeps classify_channel's A, which would answer the call below
        if not report.gi:
            with pytest.raises(ValueError):
                gi_extremality(fresh)
            continue
        unit, witness = classify._gi_extremality(fresh, DEFAULT_TOL)
        assert unit.matrix.tobytes() == report.schur.matrix.tobytes()
        ref = gi_extremality(report.schur)
        assert (witness.extremal, witness.rank_found, witness.rank_required) == (
            ref.extremal,
            ref.rank_found,
            ref.rank_required,
        )


def test_mixed_unitary_decompose_reconstructs():
    # up to d = 3 every unit-diagonal A decomposes in at most d terms, at every rank: full-rank draws,
    # then each rank 1..d, given as a SchurMatrix and as its diagonal list
    rng = np.random.default_rng(7)
    draws = [a for d in (2, 3) for a in (rand_gi_schur(rng, d) for _ in range(10))]
    low = np.random.default_rng(17)
    draws += [rand_gi_schur(low, d, r) for d in (1, 2, 3) for r in range(1, d + 1) for _ in range(10)]
    for a in draws:
        d = a.dim
        for m in (a, schur_map(a)):
            terms = mixed_unitary_decompose(m)
            assert terms is not None and len(terms) <= d
            total = sum(w for w, _ in terms)
            assert abs(total - 1.0) < 1e-9
            recon = np.zeros((d, d), dtype=complex)
            for w, phases in terms:
                u = np.exp(1j * phases)
                recon += w * np.outer(u, np.conj(u))
            assert np.max(np.abs(recon - a.matrix)) < 1e-8


def test_mixed_unitary_decompose_near_unit_diagonal():
    # a gi channel's diagonal is 1 only within eps * d: forcing each remainder's diagonal to 1 would
    # raise its rank, so S A S, S = diag(A)^(-1/2), is peeled instead, in at most rank(A) terms
    eps = DEFAULT_TOL.eps
    rng = np.random.default_rng(5)
    for d in (3, 6, 32):
        for r in (2, 3):
            for c in (0.5, 0.9):
                phases = rng.uniform(0.0, 2.0 * np.pi, size=(r, d))
                x = np.sqrt(rng.dirichlet(np.ones(r)) * (1.0 - c * eps * d))[:, None] * np.exp(1j * phases)
                a = x.T @ np.conj(x)
                s = 1.0 / np.sqrt(np.diagonal(a).real)
                for m in (SchurMatrix(a), KrausMap([np.diag(row) for row in x])):
                    terms = mixed_unitary_decompose(m)
                    assert terms is not None and len(terms) <= np.linalg.matrix_rank(a, tol=eps)
                    rebuilt = sum(w * np.outer(np.exp(1j * ph), np.exp(-1j * ph)) for w, ph in terms)
                    assert np.linalg.norm(rebuilt - s[:, None] * a * s[None, :]) <= eps * 10
    # gi allows A_ii = 0 only when eps * d >= 1; S_ii stays 1 there and the unit diagonal is rebuilt
    loose = Tolerance(0.5)
    terms = mixed_unitary_decompose(SchurMatrix(np.diag([1.0, 0.0]), loose), tol=loose)
    rebuilt = sum(w * np.outer(np.exp(1j * ph), np.exp(-1j * ph)) for w, ph in terms)
    assert np.linalg.norm(rebuilt - np.eye(2)) <= 1e-12


def test_mixed_unitary_decompose_known_mixture():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        for _ in range(5):
            a = rand_mixed_unitary_schur(rng, d, terms=2)
            terms = mixed_unitary_decompose(schur_map(a))
            assert terms is not None and len(terms) <= d


def test_mixed_unitary_decompose_extremal_returns_none():
    assert mixed_unitary_decompose(extremal_nonunitary_gi_kraus(4)) is None


def test_mixed_unitary_decompose_rejects_non_gi():
    with pytest.raises(ValueError):
        mixed_unitary_decompose(KrausMap([SX]))


def _terms(rng, d, r):
    # r random diagonal unitaries (rows of u) and their Dirichlet weights
    u = np.exp(2j * np.pi * rng.random((r, d)))
    return rng.dirichlet(np.ones(r)), u


def _mixture(rng, d, r):
    # a mixture of r random diagonal unitaries with Dirichlet weights, of exactly unit diagonal
    weights, u = _terms(rng, d, r)
    a = np.einsum("k,ki,kj->ij", weights, u, np.conj(u))
    np.fill_diagonal(a, 1.0)
    return a


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 64), st.integers(0, 2**32 - 1), st.data())
def test_simplex_mixture_splits_into_its_generating_terms(d, seed, data):
    # r diagonal unitaries with r (r - 1) + 1 <= d have independent cross terms u_k conj(u_l), so the
    # face of their mixture is a simplex: the peel returns exactly the r generating terms, and no
    # remainder of rank 2 with a null direction reaches the search
    r = data.draw(st.integers(2, max(k for k in range(2, 9) if k * (k - 1) + 1 <= d)))
    weights, u = _terms(np.random.default_rng(seed), d, r)
    a = np.einsum("k,ki,kj->ij", weights, u, np.conj(u))
    np.fill_diagonal(a, 1.0)
    searched = []
    unimodular = classify._unimodular_in_range

    def spy(basis, x, step, rng, tol):
        searched.append((x.shape[1], step is not None))
        return unimodular(basis, x, step, rng, tol)

    with mock.patch.object(classify, "_unimodular_in_range", spy):
        terms = mixed_unitary_decompose(SchurMatrix(a))
    assert (2, True) not in searched
    assert len(terms) == r
    found = np.exp(1j * np.array([phases for _, phases in terms]))
    match = np.argmax(np.abs(np.conj(found) @ u.T), axis=1)  # the generating term of each found one
    assert sorted(match) == list(range(r))
    assert np.abs(np.array([w for w, _ in terms]) - weights[match]).max() <= 1e-9
    for v, ref in zip(found, u[match]):
        assert np.abs(np.outer(v, np.conj(v)) - np.outer(ref, np.conj(ref))).max() <= 1e-9


def test_factor_peel_matches_dense_peel(monkeypatch):
    # the peel carries each remainder as its kept eigenpairs; peeling whole d x d remainders from the
    # same seed gives the same outcome, the same weights and the same terms u u^dag. The dense peel
    # takes one term per search. The package's terms up to a one-step split of a simplex remainder
    # come in the same order; the split's own come in descending order of the null direction's
    # eigenvalues, the dense peel's order only at rank 2, so they are matched by weight
    rng = np.random.default_rng(23)
    shapes = [(int(rng.integers(4, 9)), int(rng.integers(2, 5))) for _ in range(12)] + [(32, r) for r in (2, 3, 5)]
    splits = []
    simplex_split = classify._simplex_split
    monkeypatch.setattr(classify, "_simplex_split", lambda *args: splits.append(simplex_split(*args)) or splits[-1])
    decomposed = searched = 0
    for d, r in shapes:
        a = _mixture(rng, d, r)
        try:
            ref = dense_peel(a)
        except BudgetExhaustedError:
            with pytest.raises(BudgetExhaustedError):
                mixed_unitary_decompose(SchurMatrix(a))
            continue
        splits.clear()
        terms = mixed_unitary_decompose(SchurMatrix(a))
        assert len(terms) == len(ref)
        split = [len(found[0]) for found in splits if found is not None]
        head = len(terms) - sum(split)
        tail = sorted(terms[head:], key=lambda term: term[0]), sorted(ref[head:], key=lambda term: term[0])
        for (weight, phases), (ref_weight, ref_u) in zip(terms[:head] + tail[0], ref[:head] + tail[1]):
            u = np.exp(1j * phases)
            assert phases[0] == 0.0
            assert abs(weight - ref_weight) <= 1e-10
            assert np.abs(np.outer(u, np.conj(u)) - np.outer(ref_u, np.conj(ref_u))).max() <= 1e-10
        decomposed += 1
        searched += head > 0
    assert decomposed >= len(shapes) // 2 and searched >= 1


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_factor_peel_at_d256_takes_no_eigh_above_the_rank(monkeypatch, r):
    # every remainder lives in A's range: after the eigenpairs of the given A, no eigh of order above r
    d = 256
    sm = SchurMatrix(_mixture(np.random.default_rng(256 + r), d, r))
    orders = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *args: orders.append(len(m)) or eigh(m, *args))
    terms = mixed_unitary_decompose(sm)
    assert orders and max(orders) <= r
    assert len(terms) <= r and all(phases[0] == 0.0 for _, phases in terms)
    u = np.exp(1j * np.array([phases for _, phases in terms]))
    weights = np.array([weight for weight, _ in terms])
    assert np.linalg.norm((u.T * weights) @ np.conj(u) - sm.matrix) <= DEFAULT_TOL.eps * 10


def test_simplex_remainder_at_d256_splits_from_one_svd_and_one_eigh(monkeypatch):
    # a mixture of 4 unitaries at d = 256 (13 <= d) is split in one step: after A's eigenpairs, the
    # rank test's SVD of the 16 x 256 cross terms, one SVD of the 256 x 16 constraint matrix and one
    # 4 x 4 eigh of the null direction, and no search, which forms the d x d projector
    d, r = 256, 4
    sm = SchurMatrix(_mixture(np.random.default_rng(256 + r), d, r))
    calls = []
    eigh, svd = np.linalg.eigh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *args: calls.append(("eigh", m.shape)) or eigh(m, *args))
    monkeypatch.setattr(np.linalg, "svd", lambda m, *args, **kw: calls.append(("svd", m.shape)) or svd(m, *args, **kw))
    monkeypatch.setattr(classify, "_unimodular_in_range", lambda *args: pytest.fail("the search ran"))
    terms = mixed_unitary_decompose(sm)
    assert calls == [("svd", (r * r, d)), ("svd", (d, r * r)), ("eigh", (r, r))]
    assert len(terms) == r


def test_search_runs_one_descent_when_it_takes_no_step(monkeypatch):
    # a rank-2 remainder at d = 8: the descent's first face, in 2^2 <= 8 coordinates, has no null
    # direction, so the descent draws nothing and returns one seed; a random 2-dimensional range
    # holds no unimodular vector, and the search stops after that seed instead of repeating it
    sm = rand_gi_schur(np.random.default_rng(8), 8, 2)
    w, v = sm.eigen
    seeds = []
    descent = classify._descent_seed
    monkeypatch.setattr(classify, "_descent_seed", lambda *args: seeds.append(1) or descent(*args))
    basis, x = classify._phased_factor(w, v, 2, DEFAULT_TOL)
    rng = np.random.default_rng(0)
    step = classify._null_direction(x, rng, DEFAULT_TOL)
    assert step is None and classify._unimodular_in_range(basis, x, step, rng, DEFAULT_TOL) is None
    assert len(seeds) == 1


def test_peel_with_weight_near_one_ends_the_mixture(monkeypatch):
    # a peel that leaves less than A's rank cut, remaining * (1 - t) * d <= eps * lambda_1(A), takes
    # the rest of the weight and ends the mixture instead of dividing the remainder by 1 - t. In exact
    # arithmetic no peel gets there: a rank-one downdate interlaces, so every nonzero eigenvalue of a
    # remainder stays above A's smallest kept one. Round-off does: here the dominant term of
    # 1 - 3e-8, 0.6 * 3e-8 and 0.4 * 3e-8 at d = 12 is peeled first, with 1 - t = 3e-8, which scales
    # the k x k eigh's round-off into a spurious direction above eps. The last genuine term then
    # peels late, with remaining < lambda_1 / d and 1 - t far from both ends of
    # (eps, eps * lambda_1 / (d * remaining)), and the guard ends the mixture. The unitaries
    # 1, g and g^2 make the cross terms u_1 conj(u_2) = u_2 conj(u_3) coincide, so A's face is no
    # simplex and A is not split in one step: every term is peeled by the search
    d, s = 12, 3e-8
    g = np.exp(1j * np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=d))
    v = np.sqrt([1.0 - s, 0.6 * s, 0.4 * s])[None, :] * np.stack((np.ones(d), g, g * g), axis=1)
    lam = float(np.linalg.eigvalsh(v @ np.conj(v).T)[-1])
    found = []

    def spy(basis, x, step, rng, tol):
        u = unimodular(basis, x, step, rng, tol)
        w = (np.abs(x) ** 2).sum(axis=0)  # x = basis sqrt(w), basis orthonormal
        found.append(1.0 / float(np.sum(np.abs(np.conj(basis).T @ u) ** 2 / w)))
        return u

    unimodular = classify._unimodular_in_range
    monkeypatch.setattr(classify, "_unimodular_in_range", spy)
    terms = mixed_unitary_decompose(KrausMap([np.diag(x) for x in v.T]), seed=0)
    remaining, eps = float(np.prod([1.0 - t for t in found[:-1]])), DEFAULT_TOL.eps
    assert remaining < lam / d and 10 * eps < 1.0 - found[-1] < eps * lam / (d * remaining) / 10
    assert len(terms) == len(found)  # the last peel took the rest: no rank-1 remainder followed it
    rebuilt = sum(w * np.outer(np.exp(1j * ph), np.exp(-1j * ph)) for w, ph in terms)
    assert np.linalg.norm(rebuilt - v @ np.conj(v).T) <= 1e-8
    assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-12


def test_search_accepts_a_vector_near_the_range_after_all_restarts(monkeypatch):
    # the first draw at d = 12, r = 6 of a corpus of mixtures (default_rng(0) over d in 2, 3, 4, 5, 6,
    # 8, 12, r in 2..8 and 6 draws each), its diagonal set to 1: 3 of its 5 searches end on no vector
    # within eps / 10 * sqrt(d) of the range after every restart, and take the best one, within
    # eps * 10 * sqrt(d); the terms still rebuild A
    rng = np.random.default_rng(0)
    draws = {}
    for d in (2, 3, 4, 5, 6, 8, 12):
        for r in range(2, 9):
            for _ in range(6):
                draws.setdefault((d, r), (rng.dirichlet(np.ones(r)), rng.uniform(0.0, 2.0 * np.pi, (r, d))))
    w, ph = draws[12, 6]
    u = np.exp(1j * ph)
    a = np.einsum("k,ki,kj->ij", w, u, u.conj())
    np.fill_diagonal(a, 1.0)
    residuals = []

    def spy(basis, x, step, rng, tol):
        # the search's own residual ||u - P u||, over sqrt(d)
        found = unimodular(basis, x, step, rng, tol)
        proj = basis @ np.conj(basis).T
        residuals.append(float(np.linalg.norm(found - proj @ found)) / np.sqrt(len(found)))
        return found

    unimodular = classify._unimodular_in_range
    monkeypatch.setattr(classify, "_unimodular_in_range", spy)
    terms = mixed_unitary_decompose(SchurMatrix(a))
    eps = DEFAULT_TOL.eps
    relaxed = [res for res in residuals if res > eps / 10]
    assert len(residuals) == 5 and len(relaxed) == 3 and max(relaxed) <= eps * 10
    rebuilt = sum(wt * np.outer(np.exp(1j * p), np.exp(-1j * p)) for wt, p in terms)
    assert np.linalg.norm(rebuilt - a) <= eps * 10


def test_rank_cut_of_eps_one_keeps_no_kraus_operator():
    # Tolerance.rank_cut keeps the eigenvalues above eps times the top, none once eps >= 1: the
    # minimal diagonal factor that gi_extremality and schur_map read raises instead of testing or
    # building nothing
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    for eps in (1.0, 2.0):
        tol = Tolerance(eps)
        for call in (lambda: gi_extremality(SchurMatrix(a, tol), tol), lambda: schur_map(a, tol)):
            with pytest.raises(ValueError, match="cuts away every eigenvalue"):
                call()
    assert len(schur_map(a, Tolerance(0.5)).kraus) == 1  # 0.5 is cut at 0.5 * 1.5
    assert len(schur_map(np.zeros((2, 2))).kraus) == 1  # A = 0: one zero operator


def test_zero_schur_matrix_under_a_loose_tol_is_rank_zero_of_one():
    # gi allows A_ii = 0 once eps * d >= 1, so A = 0 at d = 2 is gi under eps = 0.5. Its minimal
    # diagonal factor is schur_map's single zero operator: the rank test finds rank 0 of the 1
    # required, not extremal, and the decomposition peels S A S, here the identity
    tol = Tolerance(0.5)
    zero = np.zeros((2, 2))
    for m in (SchurMatrix(zero, tol), schur_map(zero, tol)):
        assert classify_channel(m, tol=tol).gi
        witness = gi_extremality(m, tol)
        assert (witness.extremal, witness.rank_found, witness.rank_required) == (False, 0, 1)
        terms = mixed_unitary_decompose(m, tol=tol)
        weights = np.array([weight for weight, _ in terms])
        u = np.exp(1j * np.array([phases for _, phases in terms]))
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.linalg.norm((u.T * weights) @ u.conj() - np.eye(2)) <= 1e-9


def test_pio_witness_channel():
    for theta in (np.pi / 3, np.pi / 5):
        m = pio_witness_channel(theta)
        r = classify_channel(m)
        assert r.gi
    assert pio_pattern_gap(np.pi / 3, 200) > 1e-6
    # at theta = pi/4 the forced pattern is attainable, so the gap closes
    assert pio_pattern_gap(np.pi / 4, 200) < 1e-6


def test_budget_exhausted_is_runtime_error():
    assert issubclass(BudgetExhaustedError, RuntimeError)
