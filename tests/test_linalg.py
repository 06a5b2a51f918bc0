import dataclasses

import numpy as np
import pytest

from cohkit import KrausMap, PureState, classify_channel, extract_schur_matrix, plus_state
from cohkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    hermitian_eigen,
    is_hermitian,
    is_psd,
)

from oracles import relative_entropy, trace_norm, von_neumann_entropy


def test_tolerance_validation():
    for bad in (-1e-9, np.inf, np.nan):
        with pytest.raises(ValueError):
            Tolerance(bad)
    t = Tolerance(1e-7)
    assert t.eps == 1e-7 and Tolerance(0.0).eps == 0.0


def test_tolerance_keeps_the_checked_float_of_a_string():
    # the string passes float() in the check, and the float is what the thresholds compare with
    t = Tolerance("1e-9")
    assert type(t.eps) is float and t == DEFAULT_TOL
    assert np.array_equal(PureState(plus_state(3).amplitudes, t).amplitudes, plus_state(3).amplitudes)


def test_tolerance_of_zero_dim_arrays_is_hashable():
    # the Schur answer a KrausMap keeps is keyed by its Tolerance, so the Tolerance must hash
    t = Tolerance(np.array(1e-9))
    assert type(t.eps) is float and hash(t) == hash(DEFAULT_TOL)
    r = classify_channel(KrausMap([np.eye(2)]), tol=t)
    assert r.gi and r.fi


def test_tolerance_takes_one_number():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps"]
    with pytest.raises(TypeError):
        Tolerance(1e-9, 1e-9)
    for name in ("abs_eps", "rel_eps"):
        with pytest.raises(TypeError):
            Tolerance(**{name: 1e-9})


def test_one_eps_moves_every_rule():
    # Tolerance(1e-6) moves each rule off the default's, at 1/2 and 2 times its own edge
    t = Tolerance(1e-6)
    assert t.close(0.5e-6 * 3, 3) and not t.close(2e-6 * 3, 3) and not DEFAULT_TOL.close(0.5e-6 * 3, 3)
    assert t.upper(1.0, 3.0) == 1.0 + 1e-6 * 4.0 and DEFAULT_TOL.upper(1.0, 3.0) < 1.0 + 0.5e-6 * 4.0
    for factor, expected in ((0.5, True), (2.0, False)):
        w = np.array([-factor * 1e-6 * (1.0 + 2.0), 0.5, 2.0])  # the edge is -eps (1 + max|w|)
        assert t.psd(w) is expected and DEFAULT_TOL.psd(w) is False
    assert t.rank_cut(4.0) == 4e-6 and np.array_equal(t.rank_cut(np.array([2.0, -1.0])), [2e-6, 0.0])
    sing = np.array([1.0, 2e-6, 0.5e-6])
    assert np.sum(sing > t.rank_cut(sing[0])) == 2 and np.sum(sing > DEFAULT_TOL.rank_cut(sing[0])) == 3


def test_default_tolerance_is_one_eps_of_1e_9():
    # KrausMap and SchurMatrix keep their answers per Tolerance, so equal tolerances share one key
    t = Tolerance(1e-9)
    assert t == DEFAULT_TOL == Tolerance() and hash(t) == hash(DEFAULT_TOL) and Tolerance(1e-6) != DEFAULT_TOL
    m = KrausMap([np.diag([1.0, 1j])])
    assert extract_schur_matrix(m, t) is extract_schur_matrix(m, DEFAULT_TOL) is not None


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
    with pytest.raises(ValueError, match="square"):
        hermitian_eigen(np.zeros((2, 3)))


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
