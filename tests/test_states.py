import numpy as np
import pytest

from cohkit import states
from cohkit import DensityMatrix, PureState, gi_deterministic, plus_state, rel_entropy_coherence, sgi_mixed_to_pure
from cohkit.linalg import DEFAULT_TOL, Tolerance, hermitian_eigen

from conftest import rand_density, rand_pure
from oracles import majorizes, relative_entropy


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5)]))
    assert psi.dim == 2
    rho = psi.density()
    assert np.max(np.abs(rho - 0.5 * np.ones((2, 2)))) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]) / 2)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.dim == 2
    assert np.allclose(rho.diagonal(), [0.5, 0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DensityMatrix(np.ones((2, 3)) / 2), "density matrix must be square"),
        (lambda: PureState(np.array([1.0, np.nan])), "amplitudes must be finite"),
        (lambda: PureState(np.array([1.0, 1j * np.inf])), "amplitudes must be finite"),
        (lambda: plus_state(0), "dimension must be >= 1"),
    ],
    ids=["density_not_square", "nan_amplitude", "infinite_amplitude", "plus_state_0"],
)
def test_states_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_states_are_read_only():
    # a validated state keeps the value it was checked on: it holds its own read-only copy,
    # so neither the caller's array nor the object can change it
    v = np.array([1.0, 0.0], dtype=complex)
    psi = PureState(v)
    v[0] = 3.0
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho = DensityMatrix(m)
    m[0, 0] = 3.0
    assert np.array_equal(psi.amplitudes, [1.0, 0.0])
    assert np.array_equal(rho.matrix, [[1.0, 0.0], [0.0, 0.0]])
    for state, name, given in ((psi, "amplitudes", v), (rho, "matrix", m)):
        with pytest.raises(AttributeError):
            setattr(state, name, given)
        with pytest.raises(ValueError):
            getattr(state, name)[0, ...] = 0.0


def test_density_matrix_keeps_its_eigenpairs():
    # eigen is the eigh of the PSD check: read-only, the bits of hermitian_eigen, kept out of repr
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 8):
        rho = rand_density(rng, d)
        w, v = rho.eigen
        ref_w, ref_v = hermitian_eigen(rho.matrix)
        assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
        for x in (w, v):
            with pytest.raises(ValueError):
                x[0, ...] = 0.0
        with pytest.raises(AttributeError):
            rho.eigen = (w, v)
        assert "eigen" not in repr(rho)


def test_density_matrix_eigen_read_under_a_tighter_tol():
    # an anti-Hermitian gap of 2.8e-7 passes DensityMatrix at eps = 1e-6 (bound 2e-6); a call
    # at the default eps (bound 2e-9) still rejects it, as hermitian_eigen did, and a call at
    # the state's tol reads eigen
    loose = Tolerance(1e-6)
    m = np.array([[0.5, 0.25 + 2e-7j], [0.25, 0.5]])
    rho = DensityMatrix(m, loose)
    sigma = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), loose)
    with pytest.raises(ValueError):
        rel_entropy_coherence(rho)
    with pytest.raises(ValueError):
        gi_deterministic(rho, sigma)
    with pytest.raises(ValueError):
        sgi_mixed_to_pure(rho)
    assert rel_entropy_coherence(rho, loose) >= 0.0
    assert gi_deterministic(rho, sigma, loose).possible is True


def test_density_matrix_hermiticity_retested_only_under_another_tol(monkeypatch):
    # the constructor ran hermitian_eigen's Hermiticity test under rho.tol on the same read-only
    # matrix, so a read under an equal tol does not run it again; a tighter tol still does, and
    # rejects an anti-Hermitian gap of 2e-10 (Frobenius 2.8e-10) that passes the default bound 2e-9
    rho = DensityMatrix(np.array([[0.5, 0.25 + 2e-10j], [0.25, 0.5]]))
    calls = []
    retest = states.is_hermitian
    monkeypatch.setattr(states, "is_hermitian", lambda *args: calls.append(1) or retest(*args))
    assert rel_entropy_coherence(rho) >= 0.0
    assert rel_entropy_coherence(rho, Tolerance(DEFAULT_TOL.eps)) >= 0.0  # equal, not the same object
    assert calls == []
    with pytest.raises(ValueError, match="not Hermitian"):
        rel_entropy_coherence(rho, Tolerance(1e-11))
    assert calls == [1]
    assert rel_entropy_coherence(rho, Tolerance(1e-6)) >= 0.0  # a looser tol re-tests and passes
    assert calls == [1, 1]


def test_conversions_never_eigendecompose_a_given_state(monkeypatch):
    # gi_deterministic (both purity tests) and sgi_mixed_to_pure read the states' stored eigenpairs;
    # any eigh they run is of a witness candidate, a completion iterate or a 2 x 2 block
    rng = np.random.default_rng(11)
    psi = rand_pure(rng, 4)
    pure = DensityMatrix(psi.density())
    corr = rand_density(rng, 4).matrix
    corr = corr / np.sqrt(np.outer(np.diag(corr), np.diag(corr)).real)
    reached = DensityMatrix(corr * pure.matrix)
    rho = rand_density(rng, 4)
    dephased = DensityMatrix(np.diag(np.diag(rho.matrix)))
    states = (pure, reached, rho, dephased)
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(np.array(a)) or eigh(a))

    assert gi_deterministic(pure, reached).possible is True
    assert gi_deterministic(rho, dephased).possible is True
    sgi_mixed_to_pure(rho)
    assert seen
    for a in seen:
        for state in states:
            h = (state.matrix + state.matrix.conj().T) / 2.0
            assert not (a.shape == h.shape and np.array_equal(a, h))


def test_density_matrix_trace_follows_tolerance():
    # trace 1 + 4e-9: inside eps * d = 2e-6, outside 2e-9
    m = np.diag([0.5 + 2e-9, 0.5 + 2e-9])
    assert DensityMatrix(m, Tolerance(1e-6)).dim == 2
    with pytest.raises(ValueError):
        DensityMatrix(m, DEFAULT_TOL)


def test_pure_state_norm_follows_tolerance():
    # squared norm 1 + 1e-8: inside eps * d = 2e-6, outside 2e-9
    amps = np.sqrt(np.array([0.5, 0.5]) * (1.0 + 1e-8))
    assert PureState(amps, Tolerance(1e-6)).dim == 2
    with pytest.raises(ValueError):
        PureState(amps)


def test_plus_state_and_coherence_set():
    psi = plus_state(4)
    assert np.allclose(psi.amplitudes, 0.5)


def test_rel_entropy_coherence_known_values():
    assert abs(rel_entropy_coherence(DensityMatrix(plus_state(2).density())) - 1.0) < 1e-12
    assert abs(rel_entropy_coherence(DensityMatrix(plus_state(4).density())) - 2.0) < 1e-12
    assert abs(rel_entropy_coherence(DensityMatrix(np.eye(3) / 3))) < 1e-12


def test_rel_entropy_coherence_equals_distance_to_dephased():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(20):
            rho = rand_density(rng, d)
            a = rel_entropy_coherence(rho)
            b = relative_entropy(rho.matrix, np.diag(np.diag(rho.matrix)))
            assert abs(a - b) < 1e-9


def test_rel_entropy_coherence_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = rand_density(rng, 3)
        assert rel_entropy_coherence(rho) >= 0.0


def test_majorizes():
    assert majorizes([0.7, 0.3], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.7, 0.3])
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    assert majorizes([0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        majorizes([0.7, 0.2], [0.5, 0.5])


def test_majorization_tracks_pure_state_moduli():
    # squared moduli of a pure state always majorize the uniform vector
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        for _ in range(20):
            psi = rand_pure(rng, d)
            p = np.abs(psi.amplitudes) ** 2
            assert majorizes(p, np.full(d, 1.0 / d))
