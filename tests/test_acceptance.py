"""Acceptance suite: one test per headline behavior, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line;
plain `pytest` shows captured output for failing criteria only.
"""

import time

import numpy as np

from cohkit import (
    CompletenessClass,
    DensityMatrix,
    Hamiltonian,
    PureState,
    Reason,
    SearchBudget,
    apply,
    choi_matrix,
    classify_channel,
    completeness_class,
    expose_hidden_coherence,
    extract_schur_matrix,
    fi_deterministic_pure,
    gi_extremality,
    gi_pure_parent,
    is_incoherent_operator,
    mixed_unitary_decompose,
    plus_state,
    reduce_joint,
    rel_entropy_coherence,
    schur_map,
    search_sgi_probability,
    sgi_optimal_probability,
)
from cohkit.channels import KrausMap
from cohkit.linalg import frobenius

from conftest import (
    dephasing,
    pure_fidelity,
    rand_cptp,
    rand_density,
    rand_fi_map,
    rand_gi_map,
    rand_gi_schur,
    rand_incoherent_not_same_form,
    rand_pure,
    rand_sgi_schur,
)
from exhibits import (
    build_fi_rank2_map,
    extremal_nonunitary_gi_kraus,
    fi_activation_demo,
    pio_pattern_gap,
    pio_witness_channel,
)
from oracles import monte_carlo_protocol, search_cr, search_fi_map, trace_norm


def _verdict(name: str, ok: bool) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + name)
    assert ok, name


def test_stochastic_ratio_matches_search():
    # closed-form optimal branch probability vs the independent feasibility search
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(100):
            psi = rand_pure(rng, d)
            phi = rand_pure(rng, d)
            direct = sgi_optimal_probability(psi, phi).probability
            searched = search_sgi_probability(psi, phi)
            worst = max(worst, abs(direct - searched))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _verdict(f"stochastic-ratio-matches-search (worst gap {worst:.2e}, {elapsed:.1f}s)", ok)


def test_cyclic_conversion_probabilities():
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5]))
    psi = PureState(np.array([0.5, np.sqrt(5.0 / 8.0), np.sqrt(1.0 / 8.0)]))
    plus = plus_state(3)
    states = {"chi": chi, "psi": psi, "plus": plus}
    expected = {
        ("chi", "plus"): 3.0 / 4.0,
        ("plus", "chi"): 2.0 / 3.0,
        ("plus", "psi"): 8.0 / 15.0,
        ("psi", "plus"): 3.0 / 8.0,
        ("psi", "chi"): 1.0 / 2.0,
        ("chi", "psi"): 2.0 / 5.0,
    }
    values = {}
    ok = True
    for (a, b), target in expected.items():
        got = sgi_optimal_probability(states[a], states[b]).probability
        values[(a, b)] = got
        ok = ok and abs(got - target) <= 1e-10
    ok = ok and values[("chi", "plus")] > values[("plus", "chi")]
    ok = ok and values[("plus", "psi")] > values[("psi", "plus")]
    ok = ok and values[("psi", "chi")] > values[("chi", "psi")]
    _verdict("cyclic-conversion-probabilities", ok)


def test_pure_parent_reconstruction():
    rng = np.random.default_rng(102)
    ok = True
    for d in (2, 3, 4, 5):
        for _ in range(100):
            rho = rand_density(rng, d)
            parent, m = gi_pure_parent(rho)
            out, prob = apply(m, parent.density())
            ok = ok and abs(prob - 1.0) <= 1e-10
            ok = ok and frobenius(out - rho.matrix) <= 1e-10
            a = extract_schur_matrix(m)
            ok = ok and a is not None
            if a is None:
                break
            ok = ok and np.min(np.linalg.eigvalsh(a.matrix)) >= -1e-9
            ok = ok and np.max(np.abs(np.diag(a.matrix) - 1.0)) <= 1e-9
            if not ok:
                break
        if not ok:
            break
    _verdict("pure-parent-reconstruction", ok)


def test_fixed_second_factor_reduction():
    rng = np.random.default_rng(103)
    d = 3
    ok = True
    for _ in range(200):
        joint = rand_gi_schur(rng, d * d)
        sigma = rand_density(rng, d)
        rho = rand_density(rng, d)
        reduced = reduce_joint(joint, sigma)
        out, _ = apply(schur_map(joint), np.kron(rho.matrix, sigma.matrix))
        marginal = np.einsum("ikjk->ij", out.reshape(d, d, d, d))
        ok = ok and np.max(np.abs(reduced.matrix * rho.matrix - marginal)) <= 1e-10
        ok = ok and np.max(np.abs(np.real(np.diag(reduced.matrix)) - 1.0)) <= 1e-10
        ok = ok and np.min(np.linalg.eigvalsh(reduced.matrix)) >= -1e-9
        if not ok:
            break
    _verdict("fixed-second-factor-reduction", ok)


def test_hidden_coherence_witnesses():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        m = rand_incoherent_not_same_form(rng, d)
        witness = expose_hidden_coherence(m)
        ok = ok and witness is not None
        if witness is None:
            break
        ok = ok and any(not is_incoherent_operator(k) for k in witness.kraus)
        ok = ok and frobenius(choi_matrix(witness) - choi_matrix(m)) <= 1e-10
        if not ok:
            break
    for _ in range(50):
        d = int(rng.integers(2, 5))
        ok = ok and expose_hidden_coherence(rand_fi_map(rng, d)) is None
        if not ok:
            break
    _verdict("hidden-coherence-witnesses", ok)


def test_uniform_qutrit_reachable_set():
    source = plus_state(3)
    quarter_turn = np.exp(1j * np.pi / 4.0)
    targets = {
        "erase": np.array([1.0, 0.0, 0.0], dtype=complex),
        "rank2": np.array([np.sqrt(2.0 / 3.0) * quarter_turn, np.sqrt(1.0 / 3.0), 0.0]),
        "identity": source.amplitudes,
    }
    ok = True
    for target in targets.values():
        verdict = fi_deterministic_pure(source, PureState(target))
        ok = ok and verdict.possible is True
        m = verdict.map
        ok = ok and completeness_class(m.kraus) is CompletenessClass.TRACE_PRESERVING
        ok = ok and classify_channel(m).fi
        out, prob = apply(m, source.density())
        ok = ok and abs(prob - 1.0) <= 1e-10
        ok = ok and pure_fidelity(target, out) >= 1.0 - 1e-10
    stranger = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    ok = ok and fi_deterministic_pure(source, stranger).possible is False
    ok = ok and search_fi_map(source, stranger, SearchBudget(max_iterations=100000)) is None
    _verdict("uniform-qutrit-reachable-set", ok)


def test_two_branch_rank_lowering_family():
    root3 = np.sqrt(3.0)
    m = build_fi_rank2_map(
        [root3 / 2.0, 0.5], [np.sqrt(0.5), np.sqrt(0.5)], [-0.5, root3 / 2.0]
    )
    psi = PureState(np.array([0.5, np.sqrt(root3 - 1.0), 1.0 - root3 / 2.0]))
    phi = np.array([(np.sqrt(6.0) - np.sqrt(2.0)) / 2.0, np.sqrt(root3 - 1.0), 0.0])
    out, prob = apply(m, psi.density())
    ok = classify_channel(m).fi
    ok = ok and abs(prob - 1.0) <= 1e-10
    ok = ok and pure_fidelity(phi, out) >= 1.0 - 1e-10
    for k in m.kraus:
        branch = k @ psi.amplitudes
        normalized = branch / np.linalg.norm(branch)
        normalized = normalized * np.exp(-1j * np.angle(normalized[0]))
        ok = ok and np.max(np.abs(normalized - phi)) <= 1e-10
    _verdict("two-branch-rank-lowering-family", ok)


def test_two_copy_activation():
    demo = fi_activation_demo()
    expected = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    ok = frobenius(demo.reduced_output.matrix - expected) <= 1e-12
    ok = ok and classify_channel(demo.joint_map).fi
    ok = ok and completeness_class(demo.joint_map.kraus) is CompletenessClass.TRACE_PRESERVING
    ok = ok and not demo.one_copy_possible
    ok = ok and len(demo.single_copy_verdicts) == 2
    for v in demo.single_copy_verdicts:
        ok = ok and v.possible is False and v.reason is Reason.DIAGONAL_MISMATCH
    _verdict("two-copy-activation", ok)


def test_extremality_and_mixed_unitary_structure():
    rng = np.random.default_rng(105)
    channel = extremal_nonunitary_gi_kraus(4)
    witness = gi_extremality(channel)
    ok = witness.extremal and len(channel.kraus) > 1
    # independent check: the four cross-term vectors form a nonsingular system
    ok = ok and witness.witness_vectors is not None and len(witness.witness_vectors) == 4
    det = np.abs(np.linalg.det(np.array(witness.witness_vectors)))
    ok = ok and det > 1e-9
    ok = ok and mixed_unitary_decompose(channel, seed=1) is None
    for _ in range(20):
        m = schur_map(rand_gi_schur(rng, 2))
        terms = mixed_unitary_decompose(m, seed=2)
        ok = ok and terms is not None and len(terms) <= 2
        if terms is None:
            break
        recon = np.zeros((2, 2), dtype=complex)
        for w, phases in terms:
            u = np.exp(1j * phases)
            recon += w * np.outer(u, np.conj(u))
        ok = ok and np.max(np.abs(recon - extract_schur_matrix(m).matrix)) <= 1e-8
    for _ in range(20):
        m = schur_map(rand_gi_schur(rng, 3))
        a = extract_schur_matrix(m).matrix
        ok = ok and np.linalg.matrix_rank(a, tol=1e-9) >= 2
        ok = ok and not gi_extremality(m).extremal
        terms = mixed_unitary_decompose(m, seed=3)
        ok = ok and terms is not None
        if terms is None:
            break
        recon = np.zeros((3, 3), dtype=complex)
        for w, phases in terms:
            u = np.exp(1j * phases)
            recon += w * np.outer(u, np.conj(u))
        ok = ok and np.max(np.abs(recon - a)) <= 1e-8
        if not ok:
            break
    _verdict("extremality-and-mixed-unitary-structure", ok)


def test_entropy_monotone_and_contraction():
    rng = np.random.default_rng(106)
    ok = True
    for d in (2, 3, 4):
        for _ in range(200):
            m = rand_gi_map(rng, d)
            rho = rand_density(rng, d)
            out, _ = apply(m, rho)
            ok = ok and rel_entropy_coherence(DensityMatrix(out)) <= rel_entropy_coherence(rho) + 1e-9
            if not ok:
                break
        for _ in range(50):
            m = rand_cptp(rng, d, int(rng.integers(1, 4)))
            rho = rand_density(rng, d)
            sigma = rand_density(rng, d)
            out_rho, _ = apply(m, rho)
            out_sigma, _ = apply(m, sigma)
            ok = ok and trace_norm(out_rho - out_sigma) <= trace_norm(rho.matrix - sigma.matrix) + 1e-9
            if not ok:
                break
        if not ok:
            break
    _verdict("entropy-monotone-and-contraction", ok)


def test_operation_class_lattice():
    rng = np.random.default_rng(107)
    checks = []
    h2 = Hamiltonian((0.0, 1.0))
    r = classify_channel(KrausMap([np.eye(3)]), Hamiltonian((0.0, 1.0, 2.5)))
    checks.append(r.io and r.gi and r.sgi and r.fi and r.sio and r.mio and r.dio and r.tio)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        checks.append(classify_channel(rand_fi_map(rng, d)).dio)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        h = Hamiltonian(tuple(np.sort(rng.uniform(0.0, 10.0, size=d)) + np.arange(d)))
        r = classify_channel(rand_gi_map(rng, d), h)
        checks.append(r.sio and r.tio)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    for p in (0.1, 0.5, 0.9):
        r = classify_channel(KrausMap([np.sqrt(p) * x, np.sqrt(1.0 - p) * z]))
        checks.append(r.io and not r.fi)
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    r = classify_channel(KrausMap([0.5 * np.eye(2, dtype=complex), 0.5 * x, 0.5 * y, 0.5 * z]), h2)
    checks.append(r.tio and not r.fi)
    flip = KrausMap([x])
    checks.append(not classify_channel(flip, h2).tio)
    for _ in range(5):
        r = classify_channel(schur_map(rand_sgi_schur(rng, 3)))
        checks.append(r.sgi and not r.gi)
    r = classify_channel(dephasing(3))
    checks.append(r.gi and np.max(np.abs(r.schur.matrix - np.eye(3))) <= 1e-12)
    theta = np.pi / 3.0
    checks.append(classify_channel(pio_witness_channel(theta)).gi)
    checks.append(pio_pattern_gap(theta, grid_points=200) > 1e-6)
    ok = all(bool(c) for c in checks)
    _verdict("operation-class-lattice", ok)


def test_monte_carlo_agreement():
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5]))
    v = sgi_optimal_probability(chi, plus_state(3))
    rho = DensityMatrix(chi.density())
    start = time.perf_counter()
    emp, counts = monte_carlo_protocol(v.map, rho, 10**6, seed=0)
    elapsed = time.perf_counter() - start
    emp_again, counts_again = monte_carlo_protocol(v.map, rho, 10**6, seed=0)
    ok = counts.sum() == 10**6
    ok = ok and abs(emp - 0.75) <= 2e-3
    ok = ok and emp == emp_again and np.array_equal(counts, counts_again)
    ok = ok and elapsed <= 30.0
    _verdict(f"monte-carlo-agreement (empirical {emp:.6f}, {elapsed:.2f}s)", ok)


def test_entropy_search_agreement():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        rho = rand_density(rng, 2)
        worst = max(worst, abs(search_cr(rho) - rel_entropy_coherence(rho)))
    ok = worst <= 1e-4
    _verdict(f"entropy-search-agreement (worst gap {worst:.2e})", ok)
