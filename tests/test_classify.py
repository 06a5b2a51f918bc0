import numpy as np
import pytest

from cohkit import (
    BudgetExhaustedError,
    Hamiltonian,
    KrausMap,
    SchurMatrix,
    choi_matrix,
    classify_channel,
    dephasing_channel,
    expose_hidden_coherence,
    extremal_nonunitary_gi_kraus,
    gi_extremality,
    identity_channel,
    is_incoherent_operator,
    mixed_unitary_decompose,
    pio_pattern_gap,
    pio_witness_channel,
    same_form,
    schur_map,
)
from cohkit.linalg import Tolerance

from conftest import (
    rand_fi_map,
    rand_gi_map,
    rand_gi_schur,
    rand_incoherent_not_same_form,
    rand_mixed_unitary_schur,
    rand_sgi_schur,
    rand_sio_map,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_is_incoherent_operator():
    assert is_incoherent_operator(np.diag([1.0, 2.0]))
    assert is_incoherent_operator(SX)
    assert is_incoherent_operator(np.zeros((2, 2)))
    assert not is_incoherent_operator(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_io_needs_diagonal_pieces_beyond_the_mask():
    # the column (2, 0.9 abs_eps) holds one entry above abs_eps, but the off-diagonal norm
    # of its basis image, 2 * sqrt(2) * 0.9e-9 = 2.5e-9, exceeds abs_eps * d = 2e-9; such an
    # entry needs a construction tolerance that admits sum K^dag K = 4
    k = np.array([[2.0, 0.0], [0.9e-9, 0.0]])
    report = classify_channel(KrausMap([k], Tolerance(10.0, 10.0)))
    assert is_incoherent_operator(k) and report.sio and not report.io
    assert classify_channel(KrausMap([k / 2.0])).io


def test_same_form():
    assert same_form([np.diag([1.0, 1.0]), np.diag([0.5, -0.5])])
    assert not same_form([SX, SZ])
    # a zeroed column in one operator does not break the shared form
    assert same_form([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])])


def test_identity_channel_flags():
    r = classify_channel(identity_channel(3), Hamiltonian((0.0, 1.0, 2.5)))
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
    r = classify_channel(dephasing_channel(3))
    assert r.gi and r.io and r.fi
    assert r.schur is not None
    assert np.max(np.abs(r.schur.matrix - np.eye(3))) < 1e-9


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian((1.0, 1.0))
    with pytest.raises(ValueError):
        classify_channel(identity_channel(2), Hamiltonian((0.0, 1.0, 2.0)))


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


def test_mixed_unitary_decompose_reconstructs():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(10):
            a = rand_gi_schur(rng, d)
            terms = mixed_unitary_decompose(schur_map(a))
            assert terms is not None
            total = sum(w for w, _ in terms)
            assert abs(total - 1.0) < 1e-9
            recon = np.zeros((d, d), dtype=complex)
            for w, phases in terms:
                u = np.exp(1j * phases)
                recon += w * np.outer(u, np.conj(u))
            assert np.max(np.abs(recon - a.matrix)) < 1e-8


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
