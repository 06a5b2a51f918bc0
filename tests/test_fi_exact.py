"""Fully incoherent pure-state conversion against brute force: the sorted
pairing of sfi_probability against a scan over all d! relabelings, and the
coarse-graining decider of fi_deterministic_pure against an enumeration of
set partitions of the source labels. The brute forces live here only."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohkit import (
    DEFAULT_TOL,
    CompletenessClass,
    PureState,
    Reason,
    SearchBudget,
    fi_deterministic_pure,
    plus_state,
    sfi_probability,
)

from cohkit import channels, convert
from cohkit.linalg import dagger

from oracles import search_fi_map

SUPPORT_EPS = DEFAULT_TOL.eps**2


@st.composite
def populations(draw, d, min_weight=0):
    # small integers give ties and zeros, floats generic values; without a
    # minimum weight also weights in [1e-18, 1e-9], which are in the support
    # but below the 1e-9 population threshold
    entry = st.one_of(st.integers(min_weight, 4), st.floats(0.05, 1.0))
    if min_weight == 0:
        entry = st.one_of(entry, st.floats(1e-18, 1e-9))
    w = draw(st.lists(entry, min_size=d, max_size=d).filter(lambda w: sum(w) > 0))
    p = np.asarray(w, dtype=float)
    return p / p.sum()


def _state(pops, rng):
    return PureState(np.sqrt(pops) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=pops.size)))


def _pops(state):
    return np.abs(state.amplitudes) ** 2


def _scan(psq, tsq):
    # max over relabelings of the smallest ratio on the target support
    support = np.flatnonzero(tsq > SUPPORT_EPS)
    perms = np.array(list(itertools.permutations(range(psq.size))))
    worst = np.min(psq[perms[:, support]] / tsq[support], axis=1)
    return float(min(max(np.max(worst), 0.0), 1.0))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for n in range(len(part)):
            yield part[:n] + [[first] + part[n]] + part[n + 1 :]


def _coarse_grains(psi, phi):
    # some partition of the source support whose block sums are the
    # populations of the target support; matching sorted lists is optimal for
    # a max-deviation test. The supports are read as the decider reads them,
    # np.abs over the whole vector: Python's scalar abs can differ from it in
    # the last bit, which decides an amplitude of modulus eps
    psq, tsq = _pops(psi), _pops(phi)
    src = [int(j) for j in np.flatnonzero(np.abs(psi.amplitudes) > DEFAULT_TOL.eps)]
    want = sorted(float(x) for x in tsq[np.abs(phi.amplitudes) > DEFAULT_TOL.eps])
    for part in _set_partitions(src):
        if len(part) != len(want):
            continue
        sums = sorted(float(sum(psq[j] for j in block)) for block in part)
        if all(abs(a - b) <= 1e-9 for a, b in zip(sums, want)):
            return True
    return False


def _check_fi_witness(m, psi, phi):
    ops = np.stack(m.kraus)
    rows_hit = np.any(np.abs(ops) > 1e-9, axis=0)
    assert np.all(np.sum(rows_hit, axis=0) <= 1), "witness is not one-form"
    gram = np.einsum("sai,saj->ij", np.conj(ops), ops, optimize=True)
    assert np.max(np.abs(gram - np.eye(psi.dim))) <= 1e-9, "witness is not trace preserving"
    # the label map read off the witness coarse-grains the populations, and
    # the witness reaches its fidelity, which is at least 1 - 1e-9 unless
    # populations below 1e-9 trade labels
    rows = np.argmax(rows_hit, axis=0)
    fibres = np.bincount(rows, weights=_pops(psi), minlength=psi.dim)
    assert np.max(np.abs(fibres - _pops(phi))) <= 1e-9 + 1e-15, "witness breaks the populations"
    promised = float(np.sum(np.sqrt(fibres * _pops(phi)))) ** 2
    overlap = (ops @ psi.amplitudes) @ np.conj(phi.amplitudes)
    assert float(np.sum(np.abs(overlap) ** 2)) >= min(1.0 - 1e-9, promised - 1e-12), "witness misses the target"


def _rank(state):
    return int(np.count_nonzero(np.abs(state.amplitudes) > DEFAULT_TOL.eps))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sfi_sorted_pairing_equals_scan(data):
    d = data.draw(st.integers(1, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = _state(data.draw(populations(d)), rng)
    phi = _state(data.draw(populations(d)), rng)
    b = sfi_probability(psi, phi)
    assert b.lower_bound - _scan(_pops(psi), _pops(phi)) == 0.0
    assert b.exact == (_rank(psi) == _rank(phi))
    if b.exact:
        branch = b.map.kraus[0] @ psi.amplitudes
        prob = float(np.real(np.vdot(branch, branch)))
        assert abs(prob - b.lower_bound) <= 1e-10
        if prob > 1e-12:
            assert abs(np.vdot(phi.amplitudes, branch)) ** 2 / prob >= 1.0 - 1e-9


def _fi_pair(data):
    d = data.draw(st.integers(1, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psq = data.draw(populations(d))
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
        tsq = np.bincount(labels, weights=psq, minlength=d)
    else:
        tsq = data.draw(populations(d))
    return rng, _state(psq, rng), _state(tsq, rng)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fi_decider_matches_set_partitions(data):
    _, psi, phi = _fi_pair(data)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is _coarse_grains(psi, phi)
    if v.possible:
        _check_fi_witness(v.map, psi, phi)
    else:
        assert v.map is None and v.reason is not None


def test_fi_oracle_reads_the_support_like_the_decider():
    # target amplitude 1e-9 * phase: scalar abs gives exactly 1e-9, outside the support,
    # np.abs gives 1e-9 plus one ulp, inside it; the oracle once said True here
    rng = np.random.default_rng(2149)
    psq = np.array([0.0, 1e-18, 1.0, 0.0, 0.0, 0.0])
    psq /= psq.sum()
    psi, phi = _state(psq, rng), _state(np.bincount([0, 0, 1, 0, 0, 0], weights=psq, minlength=6), rng)
    assert np.count_nonzero(np.abs(phi.amplitudes) > DEFAULT_TOL.eps) == 2
    assert fi_deterministic_pure(psi, phi).possible is False is _coarse_grains(psi, phi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fi_verdicts_invariant_under_relabeling(data):
    rng, psi, phi = _fi_pair(data)
    p, q = rng.permutation(psi.dim), rng.permutation(psi.dim)
    psi_p, phi_q = PureState(psi.amplitudes[p]), PureState(phi.amplitudes[q])
    v, w = fi_deterministic_pure(psi, phi), fi_deterministic_pure(psi_p, phi_q)
    assert v.possible is w.possible and v.reason is w.reason
    assert sfi_probability(psi, phi).lower_bound == sfi_probability(psi_p, phi_q).lower_bound


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fi_decider_confirms_search_witnesses(data):
    # the old two-branch search, kept as an oracle, is in scope for d <= 4,
    # at most two source labels per target label and 2 <= rank_t < rank_s
    d = data.draw(st.integers(3, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psq = data.draw(populations(d, min_weight=1))
    labels = data.draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    sizes = np.bincount(labels, minlength=d)
    assume(2 <= np.count_nonzero(sizes) < d and sizes.max() <= 2)
    psi = _state(psq, rng)
    phi = _state(np.bincount(labels, weights=psq, minlength=d), rng)
    found = search_fi_map(psi, phi, SearchBudget(max_iterations=200))
    if found is not None:
        assert fi_deterministic_pure(psi, phi).possible is True


def _pure(pops):
    return PureState(np.sqrt(np.asarray(pops, dtype=float)).astype(complex))


@pytest.mark.parametrize(
    "pops_s, pops_t, possible, branches",
    [
        ([0.25] * 4, [0.75, 0.25, 0.0, 0.0], True, 3),
        ([0.2] * 5, [0.6, 0.4, 0.0, 0.0, 0.0], True, 3),
        ([0.5, 0.3, 0.2], [0.6, 0.4, 0.0], False, None),
        ([1 / 3] * 3, [1 / 3, 0.0, 2 / 3], True, 2),
        ([0.4, 0.3, 0.2, 0.1], [0.0, 1.0, 0.0, 0.0], True, 4),
        # a population in the support but below the 1e-9 threshold still
        # needs a label of its own, or can join a complete one
        ([0.5, 0.5 - 1e-10, 1e-10], [0.5, 0.5 - 1e-10, 1e-10], True, 1),
        ([0.5, 0.5 - 1e-10, 1e-10], [0.5, 0.5, 0.0], True, 2),
        ([0.5, 0.25, 0.25], [0.5, 0.5 - 1e-10, 1e-10], False, None),
    ],
)
def test_fi_decider_fixed_pairs(pops_s, pops_t, possible, branches):
    psi, phi = _pure(pops_s), _pure(pops_t)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is possible is _coarse_grains(psi, phi)
    if possible:
        assert len(v.map.kraus) == branches
        _check_fi_witness(v.map, psi, phi)
    else:
        equal = _rank(psi) == _rank(phi)
        assert v.reason is (Reason.NOT_UNITARILY_EQUIVALENT if equal else Reason.DIAGONAL_MISMATCH)


@pytest.mark.parametrize("delta, possible", [(5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)])
def test_fi_decider_population_threshold(delta, possible):
    v = fi_deterministic_pure(plus_state(4), _pure([0.75 + delta, 0.25 - delta, 0.0, 0.0]))
    assert v.possible is possible


def test_fi_decider_merges_pairs_at_d32():
    # one target label per pair of source labels: decided within the default
    # budget, with a two-branch witness
    rng = np.random.default_rng(7)
    psq = rng.uniform(0.2, 1.0, 32)
    psq /= psq.sum()
    tsq = np.zeros(32)
    np.add.at(tsq, rng.permutation(32) // 2, psq)
    psi, phi = _state(psq, rng), _state(tsq, rng)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is True and len(v.map.kraus) == 2
    _check_fi_witness(v.map, psi, phi)


def test_fi_decider_relabels_1100_labels():
    # equal rank: decided by the sorted pairing, with no search
    rng = np.random.default_rng(1100)
    psq = rng.dirichlet(np.ones(1100))
    psi, phi = _state(psq, rng), _state(psq[rng.permutation(1100)], rng)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is True and len(v.map.kraus) == 1
    _check_fi_witness(v.map, psi, phi)


def test_fi_decider_merges_1100_labels_onto_1099():
    # the two smallest populations share a label: the search places one population per level, 1,100
    # levels deep, far past the interpreter's recursion limit
    rng = np.random.default_rng(1100)
    psq = np.sort(rng.dirichlet(np.ones(1100)))
    tsq = np.append(psq[1:], 0.0)
    tsq[0] += psq[0]
    psi, phi = _state(psq, rng), _state(tsq[rng.permutation(1100)], rng)
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is True and len(v.map.kraus) == 2
    _check_fi_witness(v.map, psi, phi)


def test_fi_decider_pairs_sorted_populations_at_equal_rank(monkeypatch):
    # at equal rank the verdict is _label_map's, with populations tied and one of them moved by
    # delta around the 1e-9 threshold, made up by one other or spread over all others; and
    # _label_map itself is never called
    rng = np.random.default_rng(28)
    cases = []
    for _ in range(200):
        d = int(rng.integers(2, 11))
        delta = rng.choice([0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9])
        psq = rng.integers(1, 4, d) if rng.random() < 0.5 else rng.dirichlet(np.ones(d))
        psq = psq / psq.sum()
        i, j = rng.choice(d, 2, replace=False)
        rest = np.arange(d) != i if rng.random() < 0.5 else np.arange(d) == j
        tsq = psq[rng.permutation(d)] - delta * rest / np.count_nonzero(rest)
        tsq[i] += delta
        psi, phi = _state(psq, rng), _state(tsq, rng)
        items = sorted((_pops(psi)[np.abs(psi.amplitudes) > DEFAULT_TOL.eps]).tolist(), reverse=True)
        caps = _pops(phi)[np.abs(phi.amplitudes) > DEFAULT_TOL.eps].tolist()
        cases.append((psi, phi, convert._label_map(items, caps, 10**6, DEFAULT_TOL.eps) is not None))
    assert {possible for *_, possible in cases} == {True, False}

    def search(*args):
        raise AssertionError("label-map search at equal rank")

    monkeypatch.setattr(convert, "_label_map", search)
    for psi, phi, possible in cases:
        v = fi_deterministic_pure(psi, phi, budget=SearchBudget(max_iterations=1))
        assert v.possible is possible
        if possible:
            assert len(v.map.kraus) == 1
            _check_fi_witness(v.map, psi, phi)
        else:
            assert v.reason is Reason.NOT_UNITARILY_EQUIVALENT


@st.composite
def unit_vectors(draw):
    # complex unit vectors of size 2..8 whose first entry is generic, 0, of modulus 1 or negative real
    n = draw(st.integers(2, 8))
    part = st.floats(-1.0, 1.0)
    u = np.array([complex(draw(part), draw(part)) for _ in range(n)])
    first = draw(st.sampled_from(["generic", "zero", "unit", "negative"]))
    if first == "zero":
        u[0] = 0.0
    elif first == "unit":
        u = np.zeros(n, dtype=complex)
        u[0] = np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    elif first == "negative":
        u[0] = -abs(u[0]) - 0.01
    assume(np.linalg.norm(u) > 1e-3)
    return u / np.linalg.norm(u)


@settings(max_examples=300, deadline=None)
@given(unit_vectors())
def test_fi_frame_is_unitary_with_first_column_u(u):
    f = convert._frame(u)
    assert np.max(np.abs(dagger(f) @ f - np.eye(u.size))) <= 1e-12
    assert np.max(np.abs(f[:, 0] - u)) <= 1e-12


@pytest.mark.parametrize(
    "pops_s, pops_t, budget",
    [
        # equal source populations: one of them is tried per level
        ([1 / 12] * 12, [5.5 / 12, 6.5 / 12] + [0.0] * 10, 16),
        # equal target populations: one of them is opened per level
        ([1 / 12] * 12, [5.5 / 12, 5.5 / 12, 1 / 12] + [0.0] * 9, 16),
        # a target population below every source population: no search
        ([0.3, 0.3, 0.2, 0.2], [0.5, 0.45, 0.05, 0.0], 1),
    ],
)
def test_fi_decider_prunes(pops_s, pops_t, budget):
    v = fi_deterministic_pure(_pure(pops_s), _pure(pops_t), budget=SearchBudget(max_iterations=budget))
    assert v.possible is False


def test_fi_decider_budget():
    psi, phi = plus_state(3), _pure([2 / 3, 1 / 3, 0.0])
    v = fi_deterministic_pure(psi, phi, budget=SearchBudget(max_iterations=1))
    assert v.possible is None and v.map is None and v.reason is None
    assert fi_deterministic_pure(psi, phi, budget=SearchBudget(max_iterations=3)).possible is True
    # no label map exists at all: the search ends within budget with False
    v = fi_deterministic_pure(_pure([0.5, 0.3, 0.2]), _pure([0.6, 0.4, 0.0]), budget=SearchBudget(max_iterations=10))
    assert v.possible is False


def test_fi_decider_tiny_populations_trade_labels():
    # six populations of 9e-10 and six of 1e-16: crosswise labels are within
    # 1e-9 too, and the search takes them, promising a fidelity of about
    # 1 - 1.1e-8, which the witness check must accept
    small = [9e-10] * 6 + [1e-16] * 6
    psi, phi = _pure([1.0 - sum(small)] + small), _pure([1.0 - sum(small)] + small[::-1])
    v = fi_deterministic_pure(psi, phi)
    assert v.possible is True is _coarse_grains(psi, phi)
    _check_fi_witness(v.map, psi, phi)


def test_fi_decider_checks_completeness_once(monkeypatch):
    # the witness KrausMap's own completeness pass is the decider's only one
    calls = []
    completeness_class = channels.completeness_class
    monkeypatch.setattr(channels, "completeness_class", lambda *a: calls.append(1) or completeness_class(*a))
    pairs = [(plus_state(4), _pure([0.75, 0.25, 0.0, 0.0])), (_pure([0.5, 0.3, 0.2]), _pure([0.2, 0.5, 0.3]))]
    pairs.append((_pure([0.4, 0.3, 0.2, 0.1]), _pure([0.0, 0.0, 1.0, 0.0])))
    for psi, phi in pairs:
        calls.clear()
        verdict = fi_deterministic_pure(psi, phi)
        assert verdict.possible is True and verdict.map.completeness is CompletenessClass.TRACE_PRESERVING
        assert len(calls) == 1


def test_fi_decider_reports_broken_witness(monkeypatch):
    # a witness that fails verification is an error, never a verdict: a fibre of three labels
    # whose frame is scaled by 2
    frame = convert._frame
    monkeypatch.setattr(convert, "_frame", lambda u: 2.0 * frame(u))
    with pytest.raises(ArithmeticError):
        fi_deterministic_pure(plus_state(4), _pure([0.75, 0.25, 0.0, 0.0]))


def test_fi_decider_reports_broken_singleton_witness(monkeypatch):
    # four one-label fibres, each entry of the scatter scaled by 2 through its conj
    conj = np.conj
    monkeypatch.setattr(np, "conj", lambda z: 2.0 * conj(z))
    with pytest.raises(ArithmeticError):
        fi_deterministic_pure(plus_state(4), _pure([0.25] * 4))


def test_fi_decider_rank_increase():
    v = fi_deterministic_pure(_pure([0.5, 0.5, 0.0]), plus_state(3))
    assert v.possible is False and v.reason is Reason.RANK_VIOLATION
