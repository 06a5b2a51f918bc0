import numpy as np

from cohkit import DensityMatrix, KrausMap, PureState, SchurMatrix, schur_map


def dephasing(d):
    # full dephasing: keeps the diagonal, kills every off-diagonal entry
    ops = np.zeros((d, d, d), dtype=complex)
    ops[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    return KrausMap(ops)


def frustrated_cycle(s):
    # rho = (I + 0.4 C) / 4, C the adjacency matrix of the 4-cycle 0-1-2-3-0, and sigma = A o rho with
    # edge multipliers (s, s, s, -s); rho_02 = rho_13 = 0 leaves A_02 and A_13 to a completion, which
    # the odd sign makes infeasible for s near 1 and feasible at s = 0.6
    c, a = np.zeros((4, 4)), np.eye(4)
    for (i, j), x in zip(((0, 1), (1, 2), (2, 3), (3, 0)), (s, s, s, -s)):
        c[i, j] = c[j, i] = 1.0
        a[i, j] = a[j, i] = x
    rho = (np.eye(4) + 0.4 * c) / 4.0
    return rho, a * rho


def rand_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


def rand_density(rng, d, rank=None):
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def rand_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def rand_gi_schur(rng, d, rank=None):
    # a random unit-diagonal Schur matrix, of full rank unless a rank is given
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    a = g @ g.conj().T
    s = np.sqrt(np.real(np.diag(a)))
    a = a / np.outer(s, s)
    np.fill_diagonal(a, 1.0)
    return SchurMatrix(a)


def rand_gi_map(rng, d):
    return schur_map(rand_gi_schur(rng, d))


def rand_sgi_schur(rng, d):
    a = rand_gi_schur(rng, d).matrix
    scale = rng.uniform(0.2, 0.9, size=d)
    a = a * np.outer(np.sqrt(scale), np.sqrt(scale))
    return SchurMatrix(a)


def rand_mixed_unitary_schur(rng, d, terms):
    w = rng.dirichlet(np.ones(terms))
    a = np.zeros((d, d), dtype=complex)
    for t in range(terms):
        u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
        a += w[t] * np.outer(u, np.conj(u))
    np.fill_diagonal(a, 1.0)
    return SchurMatrix(a)


def rand_fi_map(rng, d, branches=2):
    # per column pick a target row (at most `branches` columns per row);
    # columns sharing a row get orthonormal branch vectors, so the map is
    # trace preserving and of one form
    slots = np.repeat(np.arange(d), branches)
    rng.shuffle(slots)
    pattern = slots[:d]
    ops = [np.zeros((d, d), dtype=complex) for _ in range(branches)]
    for r in range(d):
        cols = np.flatnonzero(pattern == r)
        if cols.size == 0:
            continue
        u = rand_unitary(rng, branches)
        for t, c in enumerate(cols):
            for s in range(branches):
                ops[s][r, c] = u[s, t]
    return KrausMap(ops)


def rand_sio_map(rng, d):
    n = int(rng.integers(1, 4))
    q = rng.dirichlet(np.ones(n))
    ops = []
    for i in range(n):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
        perm = rng.permutation(d)
        p = np.zeros((d, d), dtype=complex)
        p[perm, np.arange(d)] = 1.0
        ops.append(np.sqrt(q[i]) * np.diag(phases) @ p)
    return KrausMap(ops)


def rand_incoherent_not_same_form(rng, d):
    while True:
        p1 = rng.permutation(d)
        p2 = rng.permutation(d)
        if not np.array_equal(p1, p2):
            break
    q = rng.uniform(0.2, 0.8)
    ops = []
    for weight, perm in ((q, p1), (1.0 - q, p2)):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
        m = np.zeros((d, d), dtype=complex)
        m[perm, np.arange(d)] = phases
        ops.append(np.sqrt(weight) * m)
    return KrausMap(ops)


def rand_cptp(rng, d, n):
    g = rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d))
    q, _ = np.linalg.qr(g)
    return KrausMap([q[s * d : (s + 1) * d, :] for s in range(n)])


def pure_fidelity(phi, out):
    amps = phi.amplitudes if isinstance(phi, PureState) else np.asarray(phi)
    return float(np.real(np.conj(amps) @ out @ amps))
