import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohkit.channels
from cohkit import (
    CompletenessClass,
    DensityMatrix,
    KrausMap,
    PureState,
    SchurMatrix,
    apply,
    choi_matrix,
    classify_channel,
    completeness_class,
    diagonal_unitary,
    extract_schur_matrix,
    fi_deterministic_pure,
    gi_deterministic,
    gi_deterministic_pure,
    gi_extremality,
    minimal_representation,
    mixed_unitary_decompose,
    plus_state,
    schur_map,
    sfi_probability,
    sgi_mixed_to_pure,
    sgi_optimal_probability,
)
from cohkit.channels import _one_per_line
from cohkit.linalg import DEFAULT_TOL, Tolerance, dagger, frobenius

from conftest import (
    dephasing,
    rand_cptp,
    rand_density,
    rand_fi_map,
    rand_gi_schur,
    rand_mixed_unitary_schur,
    rand_pure,
    rand_unitary,
)


def test_completeness_class():
    assert completeness_class([np.eye(2)]) is CompletenessClass.TRACE_PRESERVING
    assert completeness_class([0.5 * np.eye(2)]) is CompletenessClass.TRACE_NON_INCREASING
    assert completeness_class([1.5 * np.eye(2)]) is CompletenessClass.INVALID


def test_kraus_map_keeps_its_completeness_class():
    # completeness is the class its constructor computed under the map's tol, kept out of repr
    rng = np.random.default_rng(5)
    maps = [KrausMap([np.eye(2)]), KrausMap([0.5 * np.eye(2)]), KrausMap(rand_cptp(rng, 3, 2))]
    maps.append(KrausMap([0.5 * rand_unitary(rng, 3)], Tolerance(1e-6)))
    for m in maps:
        assert m.completeness is completeness_class(m, m.tol)
        assert "completeness" not in repr(m)
        with pytest.raises(AttributeError):
            m.completeness = CompletenessClass.INVALID
    assert [m.completeness.value for m in maps] == [
        "trace_preserving",
        "trace_non_increasing",
        "trace_preserving",
        "trace_non_increasing",
    ]


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_completeness_class_diagonal_route_matches_eigh(offset):
    # an exactly diagonal sum K^dag K is classified from its diagonal; the same operators
    # rotated by a unitary give a sum with round-off off the diagonal, classified by eigh.
    # Values sit 1e-12 either side of the trace-preservation and the invalid thresholds.
    d = 4
    u = rand_unitary(np.random.default_rng(3), d)
    top = (1.0 + 1e-9) / (1.0 - 1e-9)  # w = 1 + eps * (1 + w)
    below = offset < 0
    cases = [
        ([1.0 - (4e-9 + offset), 1.0, 1.0, 1.0], "trace_preserving" if below else "trace_non_increasing"),
        ([top + offset, 0.5, 0.25, 0.0], "trace_non_increasing" if below else "invalid"),
    ]
    for values, expected in cases:
        ops = [np.diag(np.sqrt(values) * np.exp(1j * np.arange(d)))]
        rotated = [u @ k for k in ops]
        for kraus, off_diagonal in ((ops, False), (rotated, True)):
            s = sum(dagger(k) @ k for k in kraus)
            assert (np.count_nonzero(s - np.diag(np.diag(s))) > 0) == off_diagonal
        assert completeness_class(ops) is CompletenessClass(expected)
        assert completeness_class(rotated) is CompletenessClass(expected)


def _dense_completeness(t, tol=DEFAULT_TOL):
    # the class from the dense product sum_s K_s^dag K_s and its eigh, and that product
    s = sum(dagger(k) @ k for k in t)
    if frobenius(s - np.eye(len(s))) <= tol.eps * len(s):
        return CompletenessClass.TRACE_PRESERVING, s
    w = np.linalg.eigvalsh((s + dagger(s)) / 2.0)
    if w[-1] <= tol.upper(1.0, float(np.max(np.abs(w)))):
        return CompletenessClass.TRACE_NON_INCREASING, s
    return CompletenessClass.INVALID, s


@st.composite
def row_patterns(draw):
    """n operators of dimension d <= 64, each row holding at most one nonzero entry: permutations
    times diagonals, or each row sent to a random column or zeroed; sometimes one row holds two.
    Scaled to trace preserving, below it, or above it."""
    d = draw(st.integers(1, 64))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.zeros((n, d, d), dtype=complex)
    rows = np.arange(d)
    for k in t:
        cols = rng.permutation(d) if draw(st.booleans()) else rng.integers(0, d, size=d)
        k[rows, cols] = rng.uniform(0.1, 1.0, size=d) * np.exp(2j * np.pi * rng.random(d)) * (rng.random(d) > 0.2)
    if d > 1 and draw(st.booleans()):
        a, i, j = rng.integers(n), rng.integers(d), rng.integers(d)
        t[a, i, [j, (j + 1) % d]] = 0.5
    sums = (np.abs(t) ** 2).sum(axis=(0, 1))
    scale = draw(st.sampled_from(["unit", "below", "above"]))
    if scale == "unit":
        t = t / np.sqrt(np.where(sums > 0.0, sums, 1.0))
    else:
        t = t * np.sqrt((0.9 if scale == "below" else 1.1) / max(sums.max(), 1e-300))
    return t


@settings(max_examples=300, deadline=None)
@given(row_patterns())
def test_completeness_class_on_sparse_rows_matches_dense_product(t):
    want, s = _dense_completeness(t)
    assert completeness_class(t) is want
    if all((np.count_nonzero(k, axis=1) <= 1).all() for k in t):
        # no row holds two nonzero entries: the product is diagonal, and its diagonal is the column
        # sums of |t|^2 that completeness_class reads instead
        assert np.count_nonzero(s - np.diag(np.diag(s))) == 0
        np.testing.assert_array_max_ulp(np.diag(s).real, (t.real**2 + t.imag**2).sum(axis=(0, 1)), maxulp=4)


EPS = DEFAULT_TOL.eps
# entry parts at and around the classification threshold, with signed zeros: -0.0 is no nonzero
PARTS = [0.0, -0.0, 0.5 * EPS, EPS, 2.0 * EPS, -EPS, 1.0, -0.3]


@st.composite
def support_tensors(draw):
    """(n, d, d) complex tensors whose real and imaginary parts are drawn from PARTS, each entry
    kept with probability p (small p makes lines with one nonzero common), and a bool mask drawn
    apart from them."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = np.array(PARTS)
    t = parts[rng.integers(0, len(parts), (n, d, d))] + 1j * parts[rng.integers(0, len(parts), (n, d, d))]
    t[rng.random((n, d, d)) >= draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))] = 0.0
    mask = rng.random((n, d, d)) < draw(st.sampled_from([0.05, 0.2, 0.5]))
    return t, mask


@settings(max_examples=300, deadline=None)
@given(support_tensors())
def test_one_per_line_matches_the_per_line_counts(case):
    # the count identity against per-line counts, on every axis of the tensor, of its eps mask and of
    # a free mask, and on the 2-d masks that is_incoherent_operator and the one-form test read
    t, mask = case
    hit = np.abs(t) > EPS
    for a in (t, hit, mask, hit[0], hit.any(axis=0), mask[-1]):
        for axis in range(a.ndim):
            got = _one_per_line(a, axis)
            assert type(got) is bool  # a Python bool, as the CLI's JSON report needs
            assert got == bool((np.count_nonzero(a, axis=axis) <= 1).all())
            if a.dtype == bool:
                assert got == bool((a.sum(axis=axis) <= 1).all())


def test_completeness_class_one_entry_per_column_is_not_diagonal():
    # one entry per column, two in row 0: sum K^dag K = 0.64 [[1, 1], [1, 1]] has eigenvalue 1.28
    k = 0.8 * np.array([[1.0, 1.0], [0.0, 0.0]])
    assert completeness_class([k]) is CompletenessClass.INVALID
    with pytest.raises(ValueError):
        KrausMap([k])


def test_kraus_map_validation():
    with pytest.raises(ValueError):
        KrausMap([1.5 * np.eye(2)])
    with pytest.raises(ValueError):
        KrausMap([])
    m = KrausMap([np.eye(3)])
    assert m.dim == 3


@pytest.mark.parametrize(
    "ops, message",
    [
        ([], "Kraus list must be nonempty"),
        ([np.eye(2), np.eye(3)], "all Kraus operators must be square with equal dimension"),
        ([np.eye(2), np.full((3, 3), np.nan)], "matrix entries must be finite"),
        ([np.eye(2), np.ones(2)], "expected a matrix, got array with ndim=1"),
        ([np.ones((2, 3)) / 3], "all Kraus operators must be square with equal dimension"),
        ([np.diag([1.0, np.nan])], "matrix entries must be finite"),
        (np.ones((2, 2)), "expected a matrix, got array with ndim=1"),
        ([np.eye(2), np.eye(2)], "Kraus operators exceed trace preservation (sum K^dag K > 1)"),
    ],
    ids=["empty", "ragged", "ragged_nan", "ragged_vector", "non_square", "nan", "one_matrix", "excess"],
)
def test_kraus_map_input_contract(ops, message):
    with pytest.raises(ValueError) as exc:
        KrausMap(ops)
    assert str(exc.value) == message
    if message.startswith("Kraus operators exceed"):
        assert completeness_class(ops) is CompletenessClass.INVALID
    else:
        with pytest.raises(ValueError) as exc:
            completeness_class(ops)
        assert str(exc.value) == message


def test_kraus_map_inputs_round_trip():
    rng = np.random.default_rng(8)
    m = rand_cptp(rng, 3, 2)
    tensor = np.array([np.asarray(k) for k in m.kraus])
    for given in (list(m.kraus), tensor, np.asfortranarray(tensor), m, m.kraus):
        r = KrausMap(given)
        assert r.kraus.shape == (2, 3, 3) and r.kraus.dtype == complex and r.kraus.flags.c_contiguous
        assert np.array_equal(r.kraus, tensor) and len(r.kraus) == 2 and r.dim == 3
        assert all(np.array_equal(a, b) for a, b in zip(list(r.kraus), tensor))


def test_kraus_map_is_read_only():
    # every layer computes on the tensor the map was checked on: the map holds its own read-only
    # copy, so neither the caller's arrays nor the object can change it
    ops = [np.eye(2, dtype=complex)]
    m = KrausMap(ops)
    ops[0][0, 0] = 5.0
    assert completeness_class(m) is CompletenessClass.TRACE_PRESERVING
    tensor = np.array([np.eye(2)], dtype=complex)
    t = KrausMap(tensor)
    tensor[0, 1, 1] = 5.0
    assert np.array_equal(m.kraus, [np.eye(2)]) and np.array_equal(t.kraus, [np.eye(2)])
    with pytest.raises(AttributeError):
        m.kraus = [np.eye(2)]
    with pytest.raises(AttributeError):
        m.kraus.append(np.eye(2))
    with pytest.raises(ValueError):
        m.kraus[0][0, 0] = 0.0


def test_schur_matrix_validation():
    with pytest.raises(ValueError):
        SchurMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))
    with pytest.raises(ValueError):
        SchurMatrix(2.0 * np.eye(2))
    a = SchurMatrix(np.eye(2))
    assert a.dim == 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SchurMatrix(np.ones((2, 3)) / 2), "Schur matrix must be square"),
        (lambda: apply(KrausMap([np.eye(2)]), np.eye(3) / 3), "does not match map dimension 2"),
        (lambda: diagonal_unitary(np.zeros((2, 2))), "phases must be a 1-d array"),
    ],
    ids=["schur_not_square", "apply_shape", "diagonal_unitary_2d"],
)
def test_channels_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_schur_matrix_is_read_only():
    # the kept eigenpairs describe the matrix for the object's whole life: it holds its own
    # read-only copy, so neither the caller's array nor the object can change it
    given = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    a = SchurMatrix(given)
    given[0, 1] = 0.9
    assert a.matrix[0, 1] == 0.5j
    with pytest.raises(AttributeError):
        a.matrix = np.eye(2)
    for arr in (a.matrix, *a.eigen):
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0
    w, v = a.eigen
    assert np.allclose((v * w) @ dagger(v), a.matrix)


def test_apply_dephasing():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        m = dephasing(d)
        for _ in range(5):
            rho = rand_density(rng, d)
            out, prob = apply(m, rho)
            assert abs(prob - 1.0) < 1e-12
            assert np.max(np.abs(out - np.diag(np.diag(rho.matrix)))) < 1e-12


def test_schur_map_round_trip():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for _ in range(10):
            a = rand_gi_schur(rng, d)
            m = schur_map(a)
            back = extract_schur_matrix(m)
            assert back is not None
            assert np.max(np.abs(back.matrix - a.matrix)) < 1e-9
            rho = rand_density(rng, d)
            out, _ = apply(m, rho)
            assert np.max(np.abs(out - a.matrix * rho.matrix)) < 1e-10


def test_extract_schur_matrix_rejects_permutation():
    flip = KrausMap([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])
    assert extract_schur_matrix(flip) is None


def test_all_ones_schur_is_identity():
    rng = np.random.default_rng(2)
    m = schur_map(SchurMatrix(np.ones((3, 3))))
    rho = rand_density(rng, 3)
    out, _ = apply(m, rho)
    assert np.max(np.abs(out - rho.matrix)) < 1e-12


def test_choi_matrix_identity_channel():
    c = choi_matrix(KrausMap([np.eye(2)]))
    vec = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(c - np.outer(vec, vec))) < 1e-12
    assert abs(np.trace(c) - 2.0) < 1e-12


def _choi_rank(m):
    # the count the d^2 x d^2 Choi solve gives: eigenvalues above eps times the largest
    w = np.linalg.eigvalsh(choi_matrix(m))
    return int(np.sum(w > DEFAULT_TOL.rank_cut(w[-1])))


def test_minimal_representation():
    rng = np.random.default_rng(3)
    for d, n in ((2, 3), (3, 2), (3, 5)):
        m = rand_cptp(rng, d, n)
        # pad with a zero operator; the minimal form must drop it
        padded = KrausMap(list(m.kraus) + [np.zeros((d, d), dtype=complex)])
        mini = minimal_representation(padded)
        assert len(mini.kraus) <= n
        assert np.max(np.abs(choi_matrix(mini) - choi_matrix(m))) < 1e-9
        rank = np.linalg.matrix_rank(choi_matrix(m), tol=1e-9)
        assert len(mini.kraus) == rank
    # redundant lists (an isometric mix of n operators into n + 2) at d = 2..16: as many operators
    # as the Choi solve keeps, and the Choi matrix to round-off
    rng = np.random.default_rng(19)
    for d in range(2, 17):
        n = int(rng.integers(1, 6))
        m = rand_cptp(rng, d, n)
        v, _ = np.linalg.qr(rng.normal(size=(n + 2, n)) + 1j * rng.normal(size=(n + 2, n)))
        redundant = KrausMap(np.tensordot(v, m.kraus, axes=1))
        mini = minimal_representation(redundant)
        assert len(mini.kraus) == _choi_rank(redundant) == n
        assert np.max(np.abs(choi_matrix(mini) - choi_matrix(redundant))) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_minimal_representation_rank_cut(d):
    # a second operator whose weight is 1/2 or 2 times the eps cut of the first is dropped or
    # kept; the list is mixed by a unitary first, so the Gram matrix is not diagonal
    rng = np.random.default_rng(d)
    u = rand_unitary(rng, d)
    z = np.diag(np.resize([1.0, -1.0], d))  # tr(z) = 0: the two operators are orthogonal
    for factor, count in ((0.5, 1), (2.0, 2)):
        q = factor * DEFAULT_TOL.eps
        ops = np.array([u, u @ z]) * np.sqrt(np.array([1.0, q]) / (1.0 + q))[:, None, None]
        m = KrausMap(np.tensordot(rand_unitary(rng, 2), ops, axes=1))
        assert len(minimal_representation(m).kraus) == _choi_rank(m) == count


def _summary(x):
    # a comparable value: arrays by their bytes, maps by their tensors, dataclasses by their fields
    if isinstance(x, KrausMap):
        return x.kraus.tobytes()
    if isinstance(x, SchurMatrix):
        return x.matrix.tobytes()
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple(_summary(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_summary(y) for y in x)
    return x


def test_no_path_builds_a_choi_matrix(monkeypatch):
    # every representation change, classification and conversion decider answers as before with
    # choi_matrix unavailable, and no eigh runs at order d^2
    rng = np.random.default_rng(29)
    d = 4
    m = rand_cptp(rng, d, 3)
    u = rand_unitary(rng, 3)
    pad, _ = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    fi_map = rand_fi_map(rng, d)
    mix = rand_mixed_unitary_schur(rng, d, 2)
    gi = rand_gi_schur(rng, d)
    psi, phi = rand_pure(rng, d), rand_pure(rng, d)
    rho, sigma = rand_density(rng, d), rand_density(rng, d)
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5]))
    rank2 = PureState(np.array([np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0), 0.0]))

    def answers():
        # the lists are classified as fresh twins, so that the guarded run builds their Schur answers
        # again instead of reading the ones the first run kept on m and fi_map
        return _summary(
            [
                minimal_representation(m),
                minimal_representation(KrausMap(np.tensordot(pad, m.kraus, axes=1))),
                KrausMap(np.tensordot(u, m.kraus, axes=1)),
                classify_channel(KrausMap(m.kraus)),
                classify_channel(KrausMap(fi_map.kraus)),
                classify_channel(schur_map(gi)),
                classify_channel(mix),
                gi_extremality(gi),
                gi_extremality(schur_map(gi)),
                gi_extremality(schur_map(mix)),
                mixed_unitary_decompose(mix),
                mixed_unitary_decompose(schur_map(mix)),
                gi_deterministic_pure(psi, phi),
                gi_deterministic(rho, sigma),
                gi_deterministic(DensityMatrix(psi.density()), sigma),
                sgi_optimal_probability(chi, plus_state(3)),
                sgi_mixed_to_pure(rho),
                fi_deterministic_pure(plus_state(3), rank2),
                sfi_probability(chi, plus_state(3)),
            ]
        )

    before = answers()

    def no_choi(_):
        raise AssertionError("choi_matrix called")

    orders = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(cohkit.channels, "choi_matrix", no_choi)
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: orders.append(a.shape[-1]) or eigh(a, *args, **kw))
    assert answers() == before
    assert 0 < max(orders) < d * d


def test_diagonal_unitary():
    u = diagonal_unitary([0.0, np.pi])
    assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12
