import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohkit import (
    DensityMatrix,
    KrausMap,
    PureState,
    Reason,
    SchurMatrix,
    SearchBudget,
    apply,
    classify_channel,
    complete_sgi,
    extract_schur_matrix,
    fi_deterministic_pure,
    gi_deterministic,
    gi_deterministic_pure,
    gi_pure_parent,
    plus_state,
    reduce_joint,
    schur_map,
    sfi_probability,
    sgi_mixed_to_pure,
    sgi_optimal_probability,
)
from cohkit.linalg import DEFAULT_TOL, Tolerance, dagger

from conftest import frustrated_cycle, pure_fidelity, rand_density, rand_gi_schur, rand_pure
from exhibits import build_fi_rank2_map, fi_activation_demo


def _random_phase_twin(rng, psi):
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=psi.dim))
    return PureState(psi.amplitudes * phases)


def test_gi_pure_conversion_equal_moduli():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(20):
            psi = rand_pure(rng, d)
            phi = _random_phase_twin(rng, psi)
            v = gi_deterministic_pure(psi, phi)
            assert v.possible is True and v.probability == 1.0
            out, prob = apply(v.map, psi.density())
            assert abs(prob - 1.0) < 1e-12
            assert pure_fidelity(phi, out) > 1.0 - 1e-10


def test_gi_pure_conversion_rejects_different_moduli():
    psi = plus_state(2)
    phi = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
    v = gi_deterministic_pure(psi, phi)
    assert v.possible is False
    assert v.reason is Reason.NOT_UNITARILY_EQUIVALENT


def test_gi_pure_parent_reconstructs():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 5):
        for _ in range(10):
            rho = rand_density(rng, d)
            parent, m = gi_pure_parent(rho)
            assert np.max(np.abs(np.abs(parent.amplitudes) ** 2 - rho.diagonal())) < 1e-10
            out, prob = apply(m, parent.density())
            assert abs(prob - 1.0) < 1e-10
            assert np.max(np.abs(out - rho.matrix)) < 1e-10
            assert classify_channel(m).gi


def test_gi_pure_parent_known_multiplier():
    rho = DensityMatrix(np.array([[0.5, 0.5 / np.sqrt(3)], [0.5 / np.sqrt(3), 0.5]]))
    parent, m = gi_pure_parent(rho)
    a = extract_schur_matrix(m)
    expected = np.array([[1.0, 1.0 / np.sqrt(3)], [1.0 / np.sqrt(3), 1.0]])
    assert np.max(np.abs(a.matrix - expected)) < 1e-12
    assert np.allclose(parent.amplitudes, np.sqrt(0.5))


def test_gi_deterministic_diagonal_mismatch():
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    sigma = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    v = gi_deterministic(rho, sigma)
    assert v.possible is False and v.reason is Reason.DIAGONAL_MISMATCH


def test_gi_deterministic_pure_to_mixed():
    # a pure state reaches any state with the same populations
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(10):
            psi = rand_pure(rng, d)
            target = np.abs(psi.amplitudes) ** 2
            a = rand_gi_schur(rng, d)
            sigma = DensityMatrix(a.matrix * psi.density())
            v = gi_deterministic(DensityMatrix(psi.density()), sigma)
            assert v.possible is True
            out, prob = apply(v.map, psi.density())
            assert abs(prob - 1.0) < 1e-10
            assert np.max(np.abs(out - sigma.matrix)) < 1e-9
            assert np.max(np.abs(sigma.diagonal() - target)) < 1e-12


@st.composite
def faint_pure_pairs(draw):
    """(psi, sigma = C * psi psi^dag): C unit-diagonal of random rank r <= d <= 8, and
    psi with 1..d-1 amplitudes of modulus 10^u, u in [log10(2 eps), -7], so just above eps."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rand_gi_schur(rng, d, draw(st.integers(1, d))).matrix
    faint = rng.choice(d, size=draw(st.integers(1, d - 1)), replace=False)
    mod = rng.uniform(0.1, 1.0, size=d)
    mod[faint] = 10.0 ** rng.uniform(np.log10(2.0 * DEFAULT_TOL.eps), -7.0, size=faint.size)
    bright = np.setdiff1d(np.arange(d), faint)
    mod[bright] *= np.sqrt(1.0 - np.sum(mod[faint] ** 2)) / np.linalg.norm(mod[bright])
    psi = mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
    return psi, c * np.outer(psi, np.conj(psi))


@settings(max_examples=200, deadline=None)
@given(faint_pure_pairs())
def test_gi_deterministic_pure_source_is_decided_by_populations(pair):
    # psi -> C * psi psi^dag is always reachable: the witness is the correlation matrix of sigma with
    # psi's phases taken off, not the ratio sigma_ij / (psi_i conj(psi_j)), whose round-off grows as
    # 1 / |psi_i| when an amplitude lies just above eps
    psi, sigma = pair
    rho = np.outer(psi, np.conj(psi))
    v = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert v.possible is True and v.reason is None
    out, prob = apply(v.map, rho)
    assert abs(prob - 1.0) <= 1e-10
    assert np.linalg.norm(out - sigma) <= 10 * DEFAULT_TOL.eps


@pytest.mark.parametrize(
    "sigma",
    [
        # sigma_01 exceeds sqrt(sigma_00 sigma_11) by a relative 1e-8, which DensityMatrix's PSD rule
        # admits: the correlation entry 1 + 1e-8 leaves A an eigenvalue of -1e-8, beyond SchurMatrix's
        # rule, and A clipped to A_01 = 1 maps psi to sigma within 1e-14
        [[1.0 - 1e-12, 1e-6 * (1.0 + 1e-8)], [1e-6 * (1.0 + 1e-8), 1e-12]],
        # sigma_11 = 0 while |psi_1|^2 = 1e-12: row 1 has no correlation and keeps the identity's
        [[1.0, 0.0], [0.0, 0.0]],
    ],
)
def test_gi_deterministic_pure_source_at_the_psd_edge(sigma):
    psi = np.array([np.sqrt(1.0 - 1e-12), 1e-6])
    rho, sigma = np.outer(psi, psi), np.array(sigma)
    v = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert v.possible is True
    assert np.linalg.norm(apply(v.map, rho)[0] - sigma) <= DEFAULT_TOL.eps


_FAINT = np.array([np.sqrt(1.0 - 1e-12), 1e-6])
_FAINT3 = np.array([np.sqrt(1.0 - 2e-12), 1e-6, 1e-6])


@pytest.mark.parametrize(
    "psi, sigma, possible",
    [
        # |sigma_01| exceeds |psi_0||psi_1| by 1.9e-5 while DensityMatrix admits sigma (least eigenvalue
        # -4e-10): no unit-diagonal A comes within 10 eps, a proven False
        (_FAINT, [[1.0 - 1e-12, 2e-5], [2e-5, 1e-12]], False),
        # sigma_11 = 1e-9 against |psi_1|^2 = 1e-12, equal within eps: the forced A_01 = 1 reaches
        # sigma, while sigma's correlation entry 1e-6 / sqrt(1e-9) misses it by 1e-6
        (_FAINT, [[1.0 - 1e-9, 1e-6], [1e-6, 1e-9]], True),
        # C * psi psi^dag with C = [[1, 1, 1], [1, 1, -1], [1, -1, 1]], whose eigenvalue -1 leaves sigma
        # one of -1e-12, which DensityMatrix admits: A_12 = 1 would reach sigma within 3e-12, but the
        # clip of C moves A_01 to 1/2 and no bound rules a witness out, so the answer is undecided
        (_FAINT3, np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]]) * np.outer(_FAINT3, _FAINT3), None),
    ],
)
def test_gi_deterministic_pure_source_past_its_witnesses(psi, sigma, possible):
    # a pure source whose witnesses all miss sigma gets a verdict, never an exception
    rho, sigma = np.outer(psi, psi), np.array(sigma)
    v = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert v.possible is possible
    if possible:
        assert np.linalg.norm(apply(v.map, rho)[0] - sigma) <= 10 * DEFAULT_TOL.eps
    else:
        assert v.map is None and v.reason is Reason.COMPLETION_INFEASIBLE


def test_gi_deterministic_mixed_to_pure_blocked():
    rho = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]]))
    sigma = DensityMatrix(plus_state(2).density())
    v = gi_deterministic(rho, sigma)
    assert v.possible is False and v.reason is Reason.RANK_VIOLATION


def test_gi_deterministic_mixed_support_violation():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    sigma = DensityMatrix(np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]]))
    v = gi_deterministic(rho, sigma)
    assert v.possible is False and v.reason is Reason.SUPPORT_VIOLATION


def test_gi_deterministic_mixed_feasible():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        for _ in range(10):
            rho = rand_density(rng, d)
            a = rand_gi_schur(rng, d)
            sigma = DensityMatrix(a.matrix * rho.matrix)
            v = gi_deterministic(rho, sigma)
            assert v.possible is True
            out, prob = apply(v.map, rho.matrix)
            assert abs(prob - 1.0) < 1e-10
            assert np.max(np.abs(out - sigma.matrix)) < 1e-8


def _near_hermitian(r01, r02, r20):
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1] = m[1, 0] = r01
    m[0, 2], m[2, 0] = r02, r20
    return m


@pytest.mark.parametrize(
    "rho, sigma",
    [
        # |rho_02| and |rho_20| straddle eps: the raw entries give an asymmetric mask
        (_near_hermitian(0.1, 1.5e-9, 0.5e-9), _near_hermitian(0.05, 0.0, 0.0)),
        # a pinned coherence off by 1e-9: the raw ratios sigma_ij / rho_ij are not conjugate
        (_near_hermitian(0.1, 1e-6 + 1e-9, 1e-6), _near_hermitian(0.05, 0.5e-6, 0.5e-6)),
    ],
)
def test_gi_deterministic_mixed_reads_hermitian_parts(rho, sigma):
    # DensityMatrix admits an anti-Hermitian part up to eps * d; the verdict is that of the Hermitian parts
    v = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert v.possible is True
    out, prob = apply(v.map, rho)
    assert abs(prob - 1.0) < 1e-10
    assert np.max(np.abs(out - sigma)) < 1e-8


def test_gi_deterministic_mixed_infeasible_multiplier():
    rho = DensityMatrix(np.array([[0.5, 0.1], [0.1, 0.5]]))
    sigma = DensityMatrix(np.array([[0.5, 0.45], [0.45, 0.5]]))
    v = gi_deterministic(rho, sigma)
    assert v.possible is False and v.reason is Reason.COMPLETION_INFEASIBLE


def test_gi_deterministic_free_entry_completion():
    # source with a vanishing off-diagonal pair leaves that multiplier free
    base = np.array(
        [
            [0.4, 0.1, 0.0],
            [0.1, 0.35, 0.05],
            [0.0, 0.05, 0.25],
        ],
        dtype=complex,
    )
    rho = DensityMatrix(base)
    a = np.array(
        [
            [1.0, 0.5, 0.2],
            [0.5, 1.0, 0.5],
            [0.2, 0.5, 1.0],
        ],
        dtype=complex,
    )
    sigma = DensityMatrix(SchurMatrix(a).matrix * rho.matrix)
    # sigma's (0, 2) entry is zero because rho's is; the completion must still work
    v = gi_deterministic(rho, sigma)
    assert v.possible is True
    out, _ = apply(v.map, rho.matrix)
    assert np.max(np.abs(out - sigma.matrix)) < 1e-8


def test_gi_deterministic_path_patterns_complete():
    # rho mixes pure states on the labels {k, k + 1}, so A is pinned on a path, a chordal
    # pattern: every pinned 2 x 2 block is PSD, hence a completion exists. The completion
    # stops on the rule SchurMatrix checks, so a budget that is not the default neither
    # raises nor misses it
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d = 3 + seed % 3
        rho = np.zeros((d, d), dtype=complex)
        for k, w in enumerate(rng.dirichlet(np.ones(d - 1))):
            v = np.zeros(d, dtype=complex)
            v[k : k + 2] = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho += w * np.outer(v, v.conj()) / np.vdot(v, v).real
        a = np.eye(d, dtype=complex)
        for k in range(d - 1):
            a[k, k + 1] = rng.uniform(0.5, 0.95) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            a[k + 1, k] = np.conj(a[k, k + 1])
        verdict = gi_deterministic(DensityMatrix(rho), DensityMatrix(a * rho), budget=SearchBudget(max_iterations=10000))
        assert verdict.possible is True
        assert np.linalg.norm(apply(verdict.map, rho)[0] - a * rho) <= 1e-7


@pytest.mark.parametrize("s, possible, reason", [(0.9, None, Reason.COMPLETION_INFEASIBLE), (0.6, True, None)])
def test_gi_deterministic_frustrated_cycle(s, possible, reason):
    # at s = 0.9 no completion exists, so the search runs its whole default budget and the verdict
    # stays undecided; at s = 0.6 one does
    rho, sigma = frustrated_cycle(s)
    verdict = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert (verdict.possible, verdict.reason) == (possible, reason)
    if possible:
        assert np.linalg.norm(apply(verdict.map, rho)[0] - sigma) <= 1e-7


def test_sgi_probability_closed_forms():
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5]))
    psi = PureState(np.array([0.5, np.sqrt(5.0 / 8.0), np.sqrt(1.0 / 8.0)]))
    plus = plus_state(3)
    expected = {
        (0, 1): 3.0 / 4.0,
        (1, 0): 2.0 / 3.0,
        (1, 2): 8.0 / 15.0,
        (2, 1): 3.0 / 8.0,
        (2, 0): 1.0 / 2.0,
        (0, 2): 2.0 / 5.0,
    }
    states = [chi, plus, psi]
    for (i, j), value in expected.items():
        v = sgi_optimal_probability(states[i], states[j])
        assert abs(v.probability - value) < 1e-10


def test_sgi_probability_support_violation():
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    phi = plus_state(3)
    v = sgi_optimal_probability(psi, phi)
    assert v.possible is False and v.probability == 0.0
    assert v.reason is Reason.SUPPORT_VIOLATION


def test_pure_deciders_name_a_state_with_no_amplitude_above_eps():
    # a unit vector has an amplitude of at least 1 / sqrt(d), none above eps once eps >= 1 / sqrt(d):
    # sgi, sfi and fi read both supports through one check, which names the empty one
    tol = Tolerance(0.3)
    uniform, peaked = PureState(np.full(16, 0.25), tol), PureState(np.sqrt([0.91] + [0.06 / 15] * 15), tol)
    for decide in (sgi_optimal_probability, sfi_probability, fi_deterministic_pure):
        for psi, phi, name in ((uniform, peaked, "source"), (peaked, uniform, "target"), (uniform, uniform, "source")):
            with pytest.raises(ValueError, match=f"^the {name} state has no amplitude above eps = 0.3$"):
                decide(psi, phi, tol)
        decide(peaked, peaked, tol)  # one amplitude above eps on each side: decided


def test_sgi_probability_witness_branch():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        for _ in range(10):
            psi = rand_pure(rng, d)
            phi = rand_pure(rng, d)
            v = sgi_optimal_probability(psi, phi)
            out, prob = apply(v.map, psi.density())
            assert abs(prob - v.probability) < 1e-10
            if prob > 1e-12:
                assert pure_fidelity(phi, out / prob) > 1.0 - 1e-9


def test_complete_sgi():
    rng = np.random.default_rng(5)
    psi = rand_pure(rng, 3)
    phi = rand_pure(rng, 3)
    v = sgi_optimal_probability(psi, phi)
    full = complete_sgi(v.map)
    s = sum(dagger(k) @ k for k in full.kraus)
    assert np.max(np.abs(s - np.eye(3))) < 1e-10
    r = classify_channel(full)
    assert r.sgi
    out, prob = apply(full, psi.density())
    assert abs(prob - 1.0) < 1e-10


def test_sgi_mixed_to_pure_found():
    phi = np.array([np.sqrt(0.7), np.sqrt(0.3), 0.0])
    rho = DensityMatrix(0.6 * np.outer(phi, phi.conj()) + 0.4 * np.diag([0.0, 0.0, 1.0]).astype(complex))
    verdict, subspace = sgi_mixed_to_pure(rho)
    assert verdict.possible is True
    assert subspace == (0, 1)
    assert abs(verdict.probability - 0.6) < 1e-10


def test_sgi_mixed_to_pure_not_found():
    rho = DensityMatrix(0.9 * np.eye(3) / 3 + 0.1 * plus_state(3).density())
    verdict, subspace = sgi_mixed_to_pure(rho)
    assert verdict.possible is False and subspace is None
    assert verdict.reason is Reason.NO_PURE_PROJECTION


def test_sgi_mixed_to_pure_rejects_pure_and_incoherent():
    with pytest.raises(ValueError):
        sgi_mixed_to_pure(DensityMatrix(plus_state(2).density()))
    with pytest.raises(ValueError):
        sgi_mixed_to_pure(DensityMatrix(np.eye(2) / 2))


def test_sgi_mixed_to_pure_takes_the_states_hermiticity():
    # the anti-Hermitian gap of 4.2e-9 passes DensityMatrix at d = 8 (eps * 8) but not a
    # 2 x 2 check (eps * 2); a validated state is not checked again block by block
    v = np.zeros(8, dtype=complex)
    v[:2] = np.sqrt(0.5)
    m = 0.5 * np.outer(v, v) + 0.5 * np.eye(8) / 8
    m[0, 1] += 3e-9j
    verdict, pair = sgi_mixed_to_pure(DensityMatrix(m))
    assert verdict.possible is False and pair is None
    assert verdict.reason is Reason.NO_PURE_PROJECTION


@st.composite
def pair_block_states(draw):
    # rank-1 terms on label pairs, some sharing a label (coherent blocks of rank 2), plus populations
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.diag(rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.25)).astype(complex)
    for _ in range(draw(st.integers(1, d // 2 + 1))):
        i, j = rng.choice(d, size=2, replace=False)
        u = np.zeros(d, dtype=complex)
        u[[i, j]] = rng.normal(size=2) + 1j * rng.normal(size=2)
        m += np.outer(u, u.conj())
    return m / np.trace(m).real


@settings(max_examples=200, deadline=None)
@given(pair_block_states())
def test_sgi_mixed_to_pure_returns_the_first_rank1_pair(m):
    rho = DensityMatrix(m)
    assume(np.linalg.eigvalsh(rho.matrix)[-1] < 1.0 - 1e-6)
    d = rho.dim
    hits = []
    for i in range(d):
        for j in range(i + 1, d):
            block = rho.matrix[np.ix_([i, j], [i, j])]
            w = np.linalg.eigh((block + dagger(block)) / 2.0)[0]
            rank1 = w[0] <= DEFAULT_TOL.eps * max(w[1], 0.0)
            if abs(block[0, 1]) > DEFAULT_TOL.eps and rank1:
                hits.append((i, j))
    expected = hits[0] if hits else None
    verdict, pair = sgi_mixed_to_pure(rho)
    assert pair == expected
    if expected is None:
        assert verdict.possible is False and verdict.reason is Reason.NO_PURE_PROJECTION
    else:
        i, j = expected
        assert verdict.possible is True
        assert verdict.probability == float(np.real(rho.matrix[i, i] + rho.matrix[j, j]))
        proj = np.zeros((1, d, d), dtype=complex)
        proj[0, [i, j], [i, j]] = 1.0
        assert np.array_equal(verdict.map.kraus, proj)


def test_reduce_joint_matches_partial_trace():
    rng = np.random.default_rng(6)
    d = 3
    for _ in range(20):
        a = rand_gi_schur(rng, d * d)
        sigma = rand_density(rng, d)
        rho = rand_density(rng, d)
        reduced = reduce_joint(a, sigma)
        out, _ = apply(schur_map(a), np.kron(rho.matrix, sigma.matrix))
        marginal = np.einsum("ikjk->ij", out.reshape(d, d, d, d))
        assert np.max(np.abs(reduced.matrix * rho.matrix - marginal)) < 1e-10
        assert np.max(np.abs(np.real(np.diag(reduced.matrix)) - 1.0)) < 1e-10


def test_reduce_joint_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        reduce_joint(rand_gi_schur(rng, 6), rand_density(rng, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gi_deterministic_pure(plus_state(2), plus_state(3)), "dimension mismatch: 2 vs 3"),
        (lambda: complete_sgi(KrausMap([np.array([[0.0, 1.0], [1.0, 0.0]])])), "entrywise multiplication"),
        (lambda: reduce_joint(SchurMatrix(np.eye(4) / 2), DensityMatrix(np.eye(2) / 2)), "unit diagonal"),
    ],
    ids=["gi_pure_dims", "complete_sgi_not_schur", "reduce_joint_diagonal"],
)
def test_convert_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fi_pure_equal_rank_permutation():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        for _ in range(10):
            psi = rand_pure(rng, d)
            perm = rng.permutation(d)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
            phi = PureState(psi.amplitudes[perm] * phases)
            v = fi_deterministic_pure(psi, phi)
            assert v.possible is True
            out, prob = apply(v.map, psi.density())
            assert abs(prob - 1.0) < 1e-10
            assert pure_fidelity(phi, out) > 1.0 - 1e-10
            assert classify_channel(v.map).fi


def test_fi_pure_equal_rank_modulus_mismatch():
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2)]))
    phi = PureState(np.array([np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.2)]))
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is False and v.reason is Reason.NOT_UNITARILY_EQUIVALENT


def test_fi_pure_rank_violation():
    psi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    phi = plus_state(3)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is False and v.reason is Reason.RANK_VIOLATION


def test_fi_pure_to_basis_state():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        psi = rand_pure(rng, d)
        target = np.zeros(d, dtype=complex)
        target[d - 1] = np.exp(1j * 0.4)
        v = fi_deterministic_pure(psi, PureState(target))
        assert v.possible is True
        out, prob = apply(v.map, psi.density())
        assert abs(prob - 1.0) < 1e-10
        assert pure_fidelity(target, out) > 1.0 - 1e-10


def test_fi_pure_rank_lowering_search():
    psi = plus_state(3)
    phi = PureState(np.array([np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0), 0.0]))
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is True
    r = classify_channel(v.map)
    assert r.fi
    out, prob = apply(v.map, psi.density())
    assert abs(prob - 1.0) < 1e-9
    assert pure_fidelity(phi, out) > 1.0 - 1e-8


def test_fi_pure_rank_lowering_impossible():
    # no sum of thirds equals one half
    psi = plus_state(3)
    phi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is False and v.map is None
    assert v.reason is Reason.DIAGONAL_MISMATCH


def test_build_fi_rank2_map_validation():
    root = 1.0 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        build_fi_rank2_map([1.0, 1.0], [root, root], [0.0, 0.0])
    with pytest.raises(ValueError):
        build_fi_rank2_map([1.0, 0.0], [root, root], [1.0, 0.0])
    m = build_fi_rank2_map(
        [np.sqrt(3.0) / 2.0, 0.5], [root, root], [-0.5, np.sqrt(3.0) / 2.0]
    )
    assert classify_channel(m).fi


def test_plus3_reachable_and_witnesses():
    source = plus_state(3)

    def reachable(phi):
        return fi_deterministic_pure(source, phi).possible

    assert reachable(PureState(np.array([0.0, 1.0, 0.0], dtype=complex)))
    assert reachable(PureState(np.array([np.sqrt(1.0 / 3.0), 0.0, np.sqrt(2.0 / 3.0)])))
    assert reachable(plus_state(3))
    assert not reachable(PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])))
    targets = {
        "erase": np.array([1.0, 0.0, 0.0], dtype=complex),
        "rank2": np.array(
            [np.sqrt(2.0 / 3.0) * np.exp(1j * np.pi / 4.0), np.sqrt(1.0 / 3.0), 0.0]
        ),
        "identity": source.amplitudes,
    }
    for target in targets.values():
        m = fi_deterministic_pure(source, PureState(target)).map
        assert classify_channel(m).fi
        out, prob = apply(m, source.density())
        assert abs(prob - 1.0) < 1e-10
        assert pure_fidelity(target, out) > 1.0 - 1e-10


def test_sfi_probability_equal_rank():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        for _ in range(10):
            psi = rand_pure(rng, d)
            phi = rand_pure(rng, d)
            b = sfi_probability(psi, phi)
            assert b.exact
            assert b.map is not None
            out, prob = apply(b.map, psi.density())
            assert abs(prob - b.lower_bound) < 1e-10
            if prob > 1e-12:
                assert pure_fidelity(phi, out / prob) > 1.0 - 1e-9
            plain = sgi_optimal_probability(psi, phi).probability
            assert b.lower_bound >= plain - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_sfi_equal_rank_branch_is_the_sgi_branch(d, seed):
    # co-sorted populations on one support: the sorted pairing is the identity, so the
    # relabeled branch of sfi_probability is the diagonal branch of sgi_optimal_probability
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    support = rng.random(d) < 0.7
    support[order[0]] = True
    mods = []
    for _ in range(2):
        m = np.zeros(d)
        m[order] = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
        m = np.where(support, m, 0.0)
        mods.append(m / np.linalg.norm(m))
    psi, phi = (PureState(m * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))) for m in mods)
    bound = sfi_probability(psi, phi)
    sgi = sgi_optimal_probability(psi, phi)
    assert bound.exact
    assert bound.map.kraus.tobytes() == sgi.map.kraus.tobytes()


def test_sfi_probability_rank_drop_is_lower_bound():
    psi = plus_state(3)
    phi = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    b = sfi_probability(psi, phi)
    assert not b.exact and b.map is None
    assert abs(b.lower_bound - 2.0 / 3.0) < 1e-12


def test_sfi_probability_no_dimension_cap():
    rng = np.random.default_rng(11)
    psi, phi = rand_pure(rng, 12), rand_pure(rng, 12)
    b = sfi_probability(psi, phi)
    assert b.exact and b.map is not None
    psq = np.sort(np.abs(psi.amplitudes) ** 2)
    tsq = np.sort(np.abs(phi.amplitudes) ** 2)
    assert b.lower_bound == min(float(np.min(psq / tsq)), 1.0)
    out, prob = apply(b.map, psi.density())
    assert abs(prob - b.lower_bound) < 1e-10
    assert pure_fidelity(phi, out / prob) > 1.0 - 1e-9


def test_fi_activation_demo():
    demo = fi_activation_demo()
    expected = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    assert np.max(np.abs(demo.reduced_output.matrix - expected)) < 1e-12
    assert not demo.one_copy_possible
    for v in demo.single_copy_verdicts:
        assert v.possible is False and v.reason is Reason.DIAGONAL_MISMATCH
    r = classify_channel(demo.joint_map)
    assert r.fi
