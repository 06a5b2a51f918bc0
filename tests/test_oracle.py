import itertools

import numpy as np
import pytest

from cohkit import (
    DEFAULT_TOL,
    DensityMatrix,
    KrausMap,
    PureState,
    SearchBudget,
    Tolerance,
    apply,
    classify_channel,
    fi_deterministic_pure,
    plus_state,
    psd_complete,
    rel_entropy_coherence,
    search_sgi_probability,
    sgi_optimal_probability,
)

from cohkit.linalg import ROUNDOFF_SUM
from cohkit.oracle import _pinned_psd

from conftest import pure_fidelity, rand_density, rand_pure, rand_unitary
from oracles import monte_carlo_protocol, search_cr, search_fi_map


def test_search_budget_validation():
    b = SearchBudget()
    assert b.max_iterations == 10000
    with pytest.raises(ValueError):
        SearchBudget(max_iterations=0)
    # a fractional budget would reach psd_complete's range() as a float: rejected when it is made
    with pytest.raises(ValueError, match="integer"):
        SearchBudget(max_iterations=2.5)
    # a bool is an int in Python, but True is no budget of 1
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="integer"):
            SearchBudget(max_iterations=flag)
    assert type(SearchBudget(max_iterations=np.int64(7)).max_iterations) is int


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
    assert feasible.feasible and feasible.iterations == 0
    infeasible = psd_complete(band(0.61), mask, SearchBudget())
    assert not infeasible.feasible and infeasible.iterations == 0
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
    budget = SearchBudget()
    result = psd_complete(pinned, mask, budget)
    assert result.feasible
    assert 0 < result.iterations < budget.max_iterations
    w = result.witness
    assert np.min(np.linalg.eigvalsh(w)) > -1e-8
    assert np.max(np.abs(w[mask] - pinned[mask])) < 1e-8


def test_psd_complete_infeasible_two_by_two():
    pinned = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    mask = np.ones((2, 2), dtype=bool)
    result = psd_complete(pinned, mask, SearchBudget())
    assert not result.feasible
    assert result.iterations == 0
    # a negative pinned diagonal entry: no completion exists, so the projections run the whole budget
    budget = SearchBudget(max_iterations=200)
    negative = psd_complete(np.diag([-0.5, 1.0]).astype(complex), np.eye(2, dtype=bool), budget)
    assert not negative.feasible
    assert negative.iterations == budget.max_iterations
    assert abs(negative.residual - 0.5) < 1e-12


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_pinned_psd_rule_matches_psd_complete(tol, d):
    # lambda_min at +-1/2 and +-2 times the PSD threshold eps (1 + max|w|): only -2 fails
    rng = np.random.default_rng(d)
    t = Tolerance(tol)
    mask = np.ones((d, d), dtype=bool)
    for scale in (0.5, -0.5, 2.0, -2.0):
        for _ in range(5):
            w = np.concatenate([[0.0], rng.uniform(0.1, 1.0, d - 1)])
            w[0] = scale * t.upper(0.0, float(np.max(np.abs(w))))
            u = rand_unitary(rng, d)
            h = (u * w) @ u.conj().T
            h = (h + h.conj().T) / 2.0
            direct = _pinned_psd(h, t)
            public = psd_complete(h, mask, SearchBudget(), t)
            assert direct.feasible == public.feasible == (scale > -1.0)
            assert direct.residual == public.residual and direct.iterations == public.iterations == 0


def test_psd_complete_validation():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    with pytest.raises(ValueError):
        psd_complete(np.eye(2, dtype=complex), mask, SearchBudget())
    bad = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        psd_complete(bad, np.ones((2, 2), dtype=bool), SearchBudget())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: psd_complete(np.eye(2), np.ones((2, 3), dtype=bool)), "must be square with equal shape"),
        (lambda: search_sgi_probability(plus_state(2), plus_state(3)), "states must share a dimension"),
    ],
    ids=["psd_complete_mask_shape", "search_sgi_dims"],
)
def test_oracle_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_search_sgi_matches_closed_form():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for _ in range(5):
            psi = rand_pure(rng, d)
            phi = rand_pure(rng, d)
            direct = sgi_optimal_probability(psi, phi).probability
            searched = search_sgi_probability(psi, phi)
            assert abs(direct - searched) < 1e-6


def test_search_sgi_support_violation():
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    assert search_sgi_probability(psi, plus_state(3)) == 0.0


def _sgi_probability_loop(psi, phi, tol=DEFAULT_TOL):
    # reference: one scalar complex expression per entry of each probe's zero-padded d x d
    # multiplier matrix, decided by the public psd_complete with every entry pinned
    d = psi.dim
    sp = np.abs(psi.amplitudes) > tol.eps
    tp = np.abs(phi.amplitudes) > tol.eps
    if np.any(tp & ~sp):
        return 0.0

    def feasible(k):
        a = np.zeros((d, d), dtype=complex)
        idx = np.flatnonzero(sp)
        for i in idx:
            for j in idx:
                a[i, j] = (
                    k
                    * phi.amplitudes[i]
                    * np.conj(phi.amplitudes[j])
                    / (psi.amplitudes[i] * np.conj(psi.amplitudes[j]))
                )
        if float(np.max(np.real(np.diag(a)))) > 1.0 + ROUNDOFF_SUM:
            return False
        return psd_complete(a, np.ones((d, d), dtype=bool), SearchBudget(), tol).feasible

    return _bisect(feasible)


def _sgi_probability_per_probe(psi, phi, tol=DEFAULT_TOL):
    # reference: each probe forms k's multiplier matrix on the source support and decides it with
    # its own eigvalsh, the PSD rule of psd_complete's fully pinned branch
    sp = np.abs(psi.amplitudes) > tol.eps
    tp = np.abs(phi.amplitudes) > tol.eps
    if np.any(tp & ~sp):
        return 0.0
    phi_s, psi_s = phi.amplitudes[sp], psi.amplitudes[sp]
    den = psi_s[:, None] * np.conj(psi_s)[None, :]

    def feasible(k):
        a = (k * phi_s)[:, None] * np.conj(phi_s)[None, :] / den
        if float(a.diagonal().real.max()) > 1.0 + ROUNDOFF_SUM:
            return False
        return _pinned_psd(a, tol).feasible

    return _bisect(feasible)


def _bisect(feasible):
    # the k = 1 probe, then 30 halvings of [0, 1]
    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _sgi_corpus(rng, d):
    # (psi, phi, expected or None) amplitude pairs: zero source amplitudes outside the target
    # support, zero target amplitudes inside the source support, a support violation, the
    # phases-only target, and source amplitudes at 2 eps
    def unit(v):
        return v / np.linalg.norm(v)

    def rand(mask):
        return np.where(mask, rng.normal(size=d) + 1j * rng.normal(size=d), 0.0)

    def phases():
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))

    def with_tiny(at):
        # unit vector with modulus tiny at `at`: the other entries are scaled to norm sqrt(1 - tiny^2)
        v = rand(~at)
        v *= np.sqrt(1.0 - tiny**2) / np.linalg.norm(v)
        return np.where(at, tiny * phases(), v)

    tiny = 2.0 * DEFAULT_TOL.eps
    full = np.ones(d, dtype=bool)
    for _ in range(6):
        src = rng.random(d) < 0.7
        src[rng.integers(d)] = True
        tgt = src & (rng.random(d) < 0.7)
        tgt[rng.choice(np.flatnonzero(src))] = True
        psi = unit(rand(src))
        yield psi, unit(rand(tgt)), None
        yield psi, np.abs(psi) * phases(), 1.0
        if not src.all():
            yield psi, unit(rand(tgt | ~src)), 0.0
        if d == 1:
            continue  # no unit vector has a tiny entry
        at = np.arange(d) == rng.integers(d)
        small = with_tiny(at)
        assert np.abs(PureState(small).amplitudes[at]) > DEFAULT_TOL.eps
        yield small, unit(rand(full)), None
        yield small, with_tiny(at), None


def test_search_sgi_equals_per_probe_bisection():
    # 3,000 pairs, 375 at each d = 1..8, drawn as the corpus draws them: the scaled spectrum of the
    # one k = 1 eigvalsh decides every probe as each probe's own eigvalsh did, to the bit
    count = 0
    for d in range(1, 9):
        rng = np.random.default_rng(200 + d)
        corpus = itertools.chain.from_iterable(_sgi_corpus(rng, d) for _ in itertools.count())
        for psi_amps, phi_amps, _ in itertools.islice(corpus, 375):
            psi, phi = PureState(psi_amps), PureState(phi_amps)
            assert search_sgi_probability(psi, phi).hex() == _sgi_probability_per_probe(psi, phi).hex()
            count += 1
    assert count == 3000


def test_search_sgi_takes_one_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    rng = np.random.default_rng(7)
    for d in range(1, 9):
        for psi_amps, phi_amps, _ in _sgi_corpus(rng, d):
            calls.clear()
            search_sgi_probability(PureState(psi_amps), PureState(phi_amps))
            # a support violation returns before any matrix is formed
            eps = DEFAULT_TOL.eps
            violation = np.any((np.abs(phi_amps) > eps) & (np.abs(psi_amps) <= eps))
            assert len(calls) == (0 if violation else 1)
    calls.clear()
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    assert search_sgi_probability(psi, plus_state(3)) == 0.0 and calls == []


@pytest.mark.parametrize("d", range(1, 9))
def test_search_sgi_equals_loop_reference(d):
    rng = np.random.default_rng(100 + d)
    for psi_amps, phi_amps, expected in _sgi_corpus(rng, d):
        psi, phi = PureState(psi_amps), PureState(phi_amps)
        got = search_sgi_probability(psi, phi)
        assert got.hex() == _sgi_probability_loop(psi, phi).hex()
        if expected is not None:
            assert got == expected


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


@pytest.mark.parametrize("branches", [(1,), (-1,), (0, 0)])
def test_monte_carlo_rejects_branches_that_are_not_operators(branches):
    # one operator: index 1 (or -1) is the failure slot, and a repeated index counts its hits twice
    m = KrausMap([np.diag([1.0, np.sqrt(0.5)])])
    rho = DensityMatrix(plus_state(2).density())
    with pytest.raises(ValueError):
        monte_carlo_protocol(m, rho, 1000, seed=0, success_branches=branches)


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
