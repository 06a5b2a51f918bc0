import numpy as np
import pytest

from cohkit import (
    CoherenceSet,
    DensityMatrix,
    PureState,
    coherence_rank,
    coherence_set,
    continuity_bound,
    dephase,
    majorizes,
    plus_state,
    rel_entropy_coherence,
)
from cohkit.linalg import DEFAULT_TOL, Tolerance, relative_entropy

from conftest import rand_density, rand_pure


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


def test_density_matrix_trace_follows_tolerance():
    # trace 1 + 4e-9: inside abs_eps * d = 2e-6, outside 2e-9
    m = np.diag([0.5 + 2e-9, 0.5 + 2e-9])
    assert DensityMatrix(m, Tolerance(1e-6, 1e-6)).dim == 2
    with pytest.raises(ValueError):
        DensityMatrix(m, DEFAULT_TOL)


def test_pure_state_norm_follows_tolerance():
    # squared norm 1 + 1e-8: inside abs_eps * d = 2e-6, outside 2e-9
    amps = np.sqrt(np.array([0.5, 0.5]) * (1.0 + 1e-8))
    assert PureState(amps, Tolerance(1e-6, 1e-6)).dim == 2
    with pytest.raises(ValueError):
        PureState(amps)


def test_plus_state_and_coherence_set():
    psi = plus_state(4)
    assert np.allclose(psi.amplitudes, 0.5)
    assert coherence_set(psi).members == (0, 1, 2, 3)
    assert coherence_rank(psi) == 4
    sparse = PureState(np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]))
    assert coherence_set(sparse).members == (0, 2)
    assert coherence_rank(sparse) == 2


def test_coherence_set_validation():
    with pytest.raises(ValueError):
        CoherenceSet(3, (2, 1))
    with pytest.raises(ValueError):
        CoherenceSet(3, (0, 3))
    cs = CoherenceSet(3, (0, 2))
    assert cs.members == (0, 2)


def test_dephase():
    rho = DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]))
    out = dephase(rho)
    assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12


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
            b = relative_entropy(rho.matrix, dephase(rho).matrix)
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


def test_continuity_bound():
    assert continuity_bound(0.0, 4) == 0.0
    assert continuity_bound(0.5, 4) > 0.0
    with pytest.raises(ValueError):
        continuity_bound(1.5, 4)
    with pytest.raises(ValueError):
        continuity_bound(0.1, 1)
