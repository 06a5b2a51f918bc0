import numpy as np
import pytest

from cohkit import (
    DensityMatrix,
    PureState,
    SearchBudget,
    apply,
    classify_channel,
    fi_deterministic_pure,
    monte_carlo_protocol,
    plus_state,
    psd_complete,
    rel_entropy_coherence,
    search_cr,
    search_fi_map,
    search_sgi_probability,
    sgi_optimal_probability,
)

from conftest import pure_fidelity, rand_density, rand_pure


def test_search_budget_validation():
    b = SearchBudget()
    assert b.max_iterations == 10000 and b.seed == 0
    with pytest.raises(ValueError):
        SearchBudget(max_iterations=0)


def test_psd_complete_fully_pinned():
    def band(x):
        m = np.array(
            [
                [1.0, 0.9, x],
                [0.9, 1.0, 0.9],
                [x, 0.9, 1.0],
            ],
            dtype=complex,
        )
        return m

    mask = np.ones((3, 3), dtype=bool)
    feasible = psd_complete(band(0.63), mask, SearchBudget())
    assert feasible.feasible
    infeasible = psd_complete(band(0.61), mask, SearchBudget())
    assert not infeasible.feasible
    assert infeasible.residual > 1e-4


def test_psd_complete_with_free_entries():
    pinned = np.array(
        [
            [1.0, 0.9, 0.0],
            [0.9, 1.0, 0.9],
            [0.0, 0.9, 1.0],
        ],
        dtype=complex,
    )
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    result = psd_complete(pinned, mask, SearchBudget())
    assert result.feasible
    w = result.witness
    assert np.min(np.linalg.eigvalsh(w)) > -1e-8
    assert np.max(np.abs(w[mask] - pinned[mask])) < 1e-8


def test_psd_complete_infeasible_two_by_two():
    pinned = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    mask = np.ones((2, 2), dtype=bool)
    result = psd_complete(pinned, mask, SearchBudget())
    assert not result.feasible


def test_psd_complete_validation():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    with pytest.raises(ValueError):
        psd_complete(np.eye(2, dtype=complex), mask, SearchBudget())
    bad = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        psd_complete(bad, np.ones((2, 2), dtype=bool), SearchBudget())


def test_search_sgi_matches_closed_form():
    rng = np.random.default_rng(0)
    budget = SearchBudget(max_iterations=4000)
    for d in (2, 3):
        for _ in range(5):
            psi = rand_pure(rng, d)
            phi = rand_pure(rng, d)
            direct = sgi_optimal_probability(psi, phi).probability
            searched = search_sgi_probability(psi, phi, budget)
            assert abs(direct - searched) < 1e-6


def test_search_sgi_support_violation():
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    assert search_sgi_probability(psi, plus_state(3), SearchBudget()) == 0.0


def test_monte_carlo_deterministic():
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5]))
    v = sgi_optimal_probability(chi, plus_state(3))
    emp_a, counts_a = monte_carlo_protocol(v.map, DensityMatrix(chi.density()), 200000, seed=7)
    emp_b, counts_b = monte_carlo_protocol(v.map, DensityMatrix(chi.density()), 200000, seed=7)
    assert emp_a == emp_b
    assert np.array_equal(counts_a, counts_b)
    assert counts_a.sum() == 200000
    assert abs(emp_a - 0.75) < 0.005


def test_monte_carlo_trace_preserving_has_empty_failure_slot():
    rank2 = np.array([np.sqrt(2.0 / 3.0) * np.exp(1j * np.pi / 4.0), np.sqrt(1.0 / 3.0), 0.0])
    m = fi_deterministic_pure(plus_state(3), PureState(rank2)).map
    rho = DensityMatrix(plus_state(3).density())
    emp, counts = monte_carlo_protocol(m, rho, 5000, seed=1, success_branches=(0, 1))
    assert counts[-1] == 0
    assert emp == 1.0


def test_search_cr_matches_entropy_difference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = rand_density(rng, 2)
        direct = rel_entropy_coherence(rho)
        searched = search_cr(rho)
        assert abs(direct - searched) < 1e-6
    with pytest.raises(ValueError):
        search_cr(rand_density(rng, 3))


def test_search_fi_map_finds_witness():
    psi = plus_state(3)
    phi = PureState(np.array([np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0), 0.0]))
    m = search_fi_map(psi, phi, SearchBudget(max_iterations=2000))
    assert m is not None
    r = classify_channel(m)
    assert r.fi
    out, prob = apply(m, psi.density())
    assert abs(prob - 1.0) < 1e-9
    assert pure_fidelity(phi, out) > 1.0 - 1e-8


def test_search_fi_map_infeasible_moduli():
    psi = plus_state(3)
    phi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    assert search_fi_map(psi, phi, SearchBudget(max_iterations=100000)) is None


def test_search_fi_map_preconditions():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        search_fi_map(rand_pure(rng, 5), rand_pure(rng, 5), SearchBudget())
    psi = plus_state(3)
    with pytest.raises(ValueError):
        # rank-1 targets have a closed-form construction, not a search problem
        search_fi_map(psi, PureState(np.array([1.0, 0.0, 0.0], dtype=complex)), SearchBudget())
    with pytest.raises(ValueError):
        search_fi_map(psi, plus_state(3), SearchBudget())
