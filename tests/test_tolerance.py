"""Decisions at the tolerance thresholds, and the symmetries the theory guarantees.

An input perturbed by half the tolerance from a threshold is decided like the
unperturbed input; one perturbed by twice the tolerance is decided the other
way. Continuous data come from a numpy generator seeded by hypothesis, so that
the threshold, not a coincidence between random numbers, decides.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohkit import (
    DensityMatrix,
    Hamiltonian,
    KrausMap,
    PureState,
    Reason,
    Tolerance,
    choi_matrix,
    classify_channel,
    fi_deterministic_pure,
    gi_deterministic,
    gi_deterministic_pure,
    gi_extremality,
    sfi_probability,
    sgi_optimal_probability,
)

from conftest import (
    rand_cptp,
    rand_density,
    rand_fi_map,
    rand_gi_map,
    rand_gi_schur,
    rand_incoherent_not_same_form,
    rand_sio_map,
    rand_unitary,
)
from oracles import majorizes

TOLS = st.sampled_from([1e-12, 1e-9, 1e-6])
SEEDS = st.integers(0, 2**32 - 1)


def _pops(rng, d):
    # populations of at least 0.05 / d, so that shifting one by 2 tol keeps it positive
    return rng.dirichlet(np.ones(d)) * (1.0 - 0.05) + 0.05 / d


def _pure(pops, rng, tol):
    return PureState(np.sqrt(pops) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, pops.size)), tol)


def _shift(pops, delta, i, j):
    out = pops.copy()
    out[i] += delta
    out[j] -= delta
    return out


@settings(max_examples=40, deadline=None)
@given(TOLS, SEEDS, st.integers(2, 5))
def test_gi_pure_equal_moduli_at_threshold(tol, seed, d):
    rng = np.random.default_rng(seed)
    t = Tolerance(tol)
    p = _pops(rng, d)
    i, j = rng.choice(d, size=2, replace=False)
    psi = _pure(p, rng, t)
    assert gi_deterministic_pure(psi, _pure(p, rng, t), t).possible is True
    assert gi_deterministic_pure(psi, _pure(_shift(p, 0.5 * tol, i, j), rng, t), t).possible is True
    far = gi_deterministic_pure(psi, _pure(_shift(p, 2.0 * tol, i, j), rng, t), t)
    assert far.possible is False and far.reason is Reason.NOT_UNITARILY_EQUIVALENT


@settings(max_examples=40, deadline=None)
@given(TOLS, SEEDS, st.integers(2, 5))
def test_gi_mixed_diagonal_at_threshold(tol, seed, d):
    # sigma = rho with two populations moved by delta: every multiplier is pinned to 1
    rng = np.random.default_rng(seed)
    t = Tolerance(tol)
    rho = 0.5 * rand_density(rng, d).matrix + 0.5 * np.eye(d) / d
    i, j = rng.choice(d, size=2, replace=False)

    def verdict(delta):
        sigma = rho.copy()
        sigma[i, i] += delta
        sigma[j, j] -= delta
        return gi_deterministic(DensityMatrix(rho, t), DensityMatrix(sigma, t), t)

    assert verdict(0.0).possible is True
    assert verdict(0.5 * tol).possible is True
    far = verdict(2.0 * tol)
    assert far.possible is False and far.reason is Reason.DIAGONAL_MISMATCH


def _subset_sums_apart(p, gap):
    sums = sorted(sum(c) for r in range(1, p.size + 1) for c in itertools.combinations(p.tolist(), r))
    return bool(np.min(np.diff(sums)) > gap)


@settings(max_examples=40, deadline=None)
@given(TOLS, SEEDS, st.integers(3, 5))
def test_fi_coarse_graining_at_threshold(tol, seed, d):
    # labels 0 and 1 merge into target label 0, label 2 moves to label 1, the rest stay;
    # delta moves population from target label 1 to target label 0
    rng = np.random.default_rng(seed)
    t = Tolerance(tol)
    p = _pops(rng, d)
    assume(_subset_sums_apart(p, 10.0 * d * tol))  # no second label map within reach

    def verdict(delta):
        target = np.concatenate(([p[0] + p[1] + delta, p[2] - delta], p[3:], [0.0]))
        return fi_deterministic_pure(_pure(p, rng, t), _pure(target, rng, t), t)

    assert verdict(0.0).possible is True
    assert verdict(0.5 * tol).possible is True
    far = verdict(2.0 * tol)
    assert far.possible is False and far.reason is Reason.DIAGONAL_MISMATCH


@settings(max_examples=40, deadline=None)
@given(TOLS, SEEDS, st.integers(2, 5))
def test_gi_extremality_rank_cut_at_threshold(tol, seed, d):
    # A = (1 - e) u u^dag + e I with |u_i| = 1 has eigenvalues d / (1 + r (d - 1)) once and
    # e = r d / (1 + r (d - 1)) d - 1 times: r is the ratio that the rank cut compares to eps
    rng = np.random.default_rng(seed)
    t = Tolerance(tol)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))

    def rank_required(ratio):
        e = ratio * d / (1.0 + ratio * (d - 1))
        ops = [np.diag(np.sqrt(1.0 - e) * u)] + [np.sqrt(e) * np.diag(np.eye(d)[k]) for k in range(d)]
        return gi_extremality(KrausMap(ops, t), t).rank_required

    assert rank_required(0.0) == 1
    assert rank_required(0.5 * tol) == 1
    assert rank_required(2.0 * tol) == d * d


def _phased(rng, d):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(2, 5), st.booleans())
def test_gi_verdicts_invariant_under_diagonal_phases(seed, d, reachable):
    rng = np.random.default_rng(seed)
    p = _pops(rng, d)
    psi, phi = _pure(p, rng, Tolerance()), _pure(p if reachable else _pops(rng, d), rng, Tolerance())
    z = _phased(rng, d)
    base = gi_deterministic_pure(psi, phi).possible
    assert base is reachable
    assert gi_deterministic_pure(PureState(z * psi.amplitudes), phi).possible is base
    rho = rand_density(rng, d)
    sigma = DensityMatrix(rand_gi_schur(rng, d).matrix * rho.matrix) if reachable else rand_density(rng, d)
    base = gi_deterministic(rho, sigma).possible
    assert base is reachable
    w = _phased(rng, d)
    assert gi_deterministic(DensityMatrix(np.outer(z, np.conj(z)) * rho.matrix), sigma).possible is base
    assert gi_deterministic(rho, DensityMatrix(np.outer(w, np.conj(w)) * sigma.matrix)).possible is base


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(2, 5), st.booleans())
def test_fi_verdicts_invariant_under_relabelings(seed, d, coarse):
    rng = np.random.default_rng(seed)
    p = _pops(rng, d)
    if coarse:  # a random label map: possible
        target = np.bincount(rng.integers(0, d, d), weights=p, minlength=d)
    else:
        target = _pops(rng, d)
    psi, phi = _pure(p, rng, Tolerance()), _pure(target, rng, Tolerance())
    s, r = rng.permutation(d), rng.permutation(d)
    moved_psi, moved_phi = PureState(psi.amplitudes[s]), PureState(phi.amplitudes[r])
    base = fi_deterministic_pure(psi, phi).possible
    if coarse:
        assert base is True
    assert fi_deterministic_pure(moved_psi, moved_phi).possible is base
    assert sfi_probability(moved_psi, moved_phi).lower_bound == sfi_probability(psi, phi).lower_bound


CHANNELS = {
    "gi": rand_gi_map,
    "fi": rand_fi_map,
    "sio": rand_sio_map,
    "incoherent": rand_incoherent_not_same_form,
    "cptp": lambda rng, d: rand_cptp(rng, d, int(rng.integers(1, 4))),
}


def _isometry(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    return q


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(2, 4), st.sampled_from(sorted(CHANNELS)))
def test_channel_flags_invariant_under_kraus_remixing(seed, d, family):
    # gi, sgi, mio, dio and tio are properties of the channel, not of its Kraus list:
    # a unitary re-mixing and an isometric pad by one operator keep the Choi matrix
    # within eps / 10 * d in Frobenius norm and leave the flags unchanged
    rng = np.random.default_rng(seed)
    m = CHANNELS[family](rng, d)
    hamiltonian = Hamiltonian(tuple(np.sort(rng.normal(size=d))))
    n = len(m.kraus)

    def flags(channel):
        report = classify_channel(channel, hamiltonian)
        return report.gi, report.sgi, report.mio, report.dio, report.tio

    base = flags(m)
    for v in (rand_unitary(rng, n), _isometry(rng, n + 1, n)):
        remixed = KrausMap(np.tensordot(v, m.kraus, axes=1))
        assert np.linalg.norm(choi_matrix(remixed) - choi_matrix(m)) <= Tolerance().eps / 10 * d
        assert flags(remixed) == base


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(2, 6), st.sampled_from(["phases", "coarse", "random"]))
def test_class_order(seed, d, pairing):
    # GI is a subclass of FI, FI conversion needs majorization of the populations, and the
    # best single GI branch succeeds no more often than the best FI relabeling
    rng = np.random.default_rng(seed)
    t = Tolerance()
    p = _pops(rng, d)
    if pairing == "phases":
        target = p
    elif pairing == "coarse":
        target = np.bincount(rng.integers(0, d, d), weights=p, minlength=d)
    else:
        target = _pops(rng, d)
    psi, phi = _pure(p, rng, t), _pure(target, rng, t)
    gi = gi_deterministic_pure(psi, phi, t).possible
    fi = fi_deterministic_pure(psi, phi, t).possible
    assert gi in (True, False) and fi in (True, False)
    assert fi or not gi
    assert majorizes(np.abs(phi.amplitudes) ** 2, np.abs(psi.amplitudes) ** 2, t) or not fi
    assert sgi_optimal_probability(psi, phi, t).probability <= sfi_probability(psi, phi, t).lower_bound + t.eps
