import numpy as np
import pytest

from cohkit import (
    CompletenessClass,
    KrausMap,
    Permutation,
    SchurMatrix,
    apply,
    choi_matrix,
    completeness_class,
    dephasing_channel,
    diagonal_unitary,
    extract_schur_matrix,
    identity_channel,
    minimal_representation,
    permutation_unitary,
    schur_map,
    tensor_channels,
    transform_representation,
)
from cohkit.linalg import dagger, tensor

from conftest import rand_cptp, rand_density, rand_gi_schur, rand_unitary


def test_completeness_class():
    assert completeness_class([np.eye(2)]) is CompletenessClass.TRACE_PRESERVING
    assert completeness_class([0.5 * np.eye(2)]) is CompletenessClass.TRACE_NON_INCREASING
    assert completeness_class([1.5 * np.eye(2)]) is CompletenessClass.INVALID


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_completeness_class_diagonal_route_matches_eigh(offset):
    # an exactly diagonal sum K^dag K is classified from its diagonal; the same operators
    # rotated by a unitary give a sum with round-off off the diagonal, classified by eigh.
    # Values sit 1e-12 either side of the trace-preservation and the invalid thresholds.
    d = 4
    u = rand_unitary(np.random.default_rng(3), d)
    top = (1.0 + 1e-9) / (1.0 - 1e-9)  # w = 1 + abs_eps + rel_eps * w
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


def test_kraus_map_validation():
    with pytest.raises(ValueError):
        KrausMap([1.5 * np.eye(2)])
    with pytest.raises(ValueError):
        KrausMap([])
    m = KrausMap([np.eye(3)])
    assert m.dim == 3


def test_schur_matrix_validation():
    with pytest.raises(ValueError):
        SchurMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))
    with pytest.raises(ValueError):
        SchurMatrix(2.0 * np.eye(2))
    a = SchurMatrix(np.eye(2))
    assert a.dim == 2


def test_apply_dephasing():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        m = dephasing_channel(d)
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
    c = choi_matrix(identity_channel(2))
    vec = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(c - np.outer(vec, vec))) < 1e-12
    assert abs(np.trace(c) - 2.0) < 1e-12


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


def test_transform_representation_unitary_mix():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = rand_cptp(rng, 3, 2)
        u = rand_unitary(rng, 2)
        mixed = transform_representation(m, u)
        assert np.max(np.abs(choi_matrix(mixed) - choi_matrix(m))) < 1e-9


def test_transform_representation_isometric_pad():
    rng = np.random.default_rng(5)
    m = rand_cptp(rng, 2, 2)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    v, _ = np.linalg.qr(g)
    padded = transform_representation(m, v)
    assert len(padded.kraus) == 4
    assert np.max(np.abs(choi_matrix(padded) - choi_matrix(m))) < 1e-9


def test_transform_representation_rejects_non_isometry():
    rng = np.random.default_rng(6)
    m = rand_cptp(rng, 2, 2)
    with pytest.raises(ValueError):
        transform_representation(m, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_permutation_unitary_and_transpositions():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        for _ in range(10):
            p = Permutation(tuple(int(x) for x in rng.permutation(d)))
            u = permutation_unitary(p)
            assert np.max(np.abs(u @ dagger(u) - np.eye(d))) < 1e-12
            prod = np.eye(d)
            for a, b in p.transpositions():
                t = np.eye(d)
                t[[a, b]] = t[[b, a]]
                prod = prod @ t
            assert np.max(np.abs(prod - u)) < 1e-12


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_diagonal_unitary():
    u = diagonal_unitary([0.0, np.pi])
    assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12


def test_tensor_channels():
    rng = np.random.default_rng(8)
    a = rand_cptp(rng, 2, 2)
    b = rand_cptp(rng, 2, 3)
    joint = tensor_channels(a, b)
    rho = rand_density(rng, 2)
    sig = rand_density(rng, 2)
    out_joint, _ = apply(joint, tensor(rho.matrix, sig.matrix))
    out_a, _ = apply(a, rho)
    out_b, _ = apply(b, sig)
    assert np.max(np.abs(out_joint - tensor(out_a, out_b))) < 1e-10
