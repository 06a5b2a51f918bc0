import numpy as np
import pytest

from cohkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    hermitian_eigen,
    is_hermitian,
    is_psd,
    partial_trace_second,
    schur_product,
    tensor,
)

from oracles import relative_entropy, trace_norm, von_neumann_entropy


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1e-9)
    with pytest.raises(ValueError):
        Tolerance(rel_eps=-1e-9)
    t = Tolerance(abs_eps=1e-7, rel_eps=1e-8)
    assert t.abs_eps == 1e-7 and t.rel_eps == 1e-8
    assert Tolerance(abs_eps=0.0, rel_eps=0.0).abs_eps == 0.0


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_hermitian_eigen_known_values():
    m = np.array([[0.5, np.sqrt(2) / 4], [np.sqrt(2) / 4, 0.5]])
    w, v = hermitian_eigen(m)
    assert np.allclose(w, [(2 - np.sqrt(2)) / 4, (2 + np.sqrt(2)) / 4])
    assert np.max(np.abs((v * w) @ dagger(v) - m)) < 1e-12


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_examples():
    assert is_psd(np.eye(3))
    assert not is_psd(np.array([[1.0, 1.2], [1.2, 1.0]]))
    assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 0.0]]))
    assert not is_hermitian(np.array([[1.0, 1j], [1j, 0.0]]))


def test_trace_norm_projector_minus_half_identity():
    m = np.diag([1.0, 0.0]) - np.eye(2) / 2
    assert abs(trace_norm(m) - 1.0) < 1e-12


def test_schur_product_identity_and_ones():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ dagger(g)
        rho = rho / np.trace(rho)
        assert np.max(np.abs(schur_product(np.ones((3, 3)), rho) - rho)) < 1e-12
        dep = schur_product(np.eye(3), rho)
        assert np.max(np.abs(dep - np.diag(np.diag(rho)))) < 1e-12


def test_partial_trace_second_of_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a @ dagger(a)
        a = a / np.trace(a)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b @ dagger(b)
        b = b / np.trace(b)
        assert np.max(np.abs(partial_trace_second(tensor(a, b), 2, 3) - a)) < 1e-12


def test_entropies():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([1.0, 0.0]))) < 1e-12


def test_relative_entropy_cases():
    rho = np.diag([0.75, 0.25])
    sigma = np.eye(2) / 2
    expected = 0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)
    assert abs(relative_entropy(rho, sigma) - expected) < 1e-10
    assert abs(relative_entropy(sigma, sigma)) < 1e-10
    assert relative_entropy(sigma, np.diag([1.0, 0.0])) == np.inf


def test_relative_entropy_takes_one_eigh_per_state(monkeypatch):
    # sigma is validated from the spectrum its support and logarithm are read from
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rho, sigma = np.diag([0.75, 0.25]), np.eye(2) / 2
    assert abs(relative_entropy(rho, sigma) - (0.75 * np.log2(1.5) + 0.25 * np.log2(0.5))) < 1e-10
    assert len(calls) == 2


@pytest.mark.parametrize(
    "rho, sigma, message",
    [
        (np.diag([1.5, -0.5]), np.diag([1.5, -0.5]) + [[0, 1], [0, 0]], "positive semidefinite"),
        (np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(2) / 2, np.diag([1.5, -0.5]), "positive semidefinite"),
        (np.eye(2) / 2, np.diag([1.5, 0.5]), "unit trace"),
        (np.eye(2) / 2, np.diag([1.5, -0.1]), "positive semidefinite"),
    ],
)
def test_relative_entropy_validates_rho_then_sigma(rho, sigma, message):
    # rho's checks run first; sigma is checked for Hermiticity, then PSD, then unit trace
    with pytest.raises(ValueError, match=message):
        relative_entropy(rho, sigma)


def test_frobenius():
    assert abs(frobenius(np.array([[3.0, 4.0], [0.0, 0.0]])) - 5.0) < 1e-12
