"""schur-d32: classify, test extremality and decompose random Schur channels at d=32.

Each channel is given as a list of diagonal Kraus operators built from a
generating factor V (d x r, unit rows): the diagonals are the columns of
V @ W for a random r x n co-isometry W, so the list has n >= r operators and
the channel multiplies entrywise by A = V V^dag.
"""

from __future__ import annotations

import functools

import numpy as np

from question import OK, Question, Workload, random_unitary, rng_for
from reference import cross_product_rank, require

D = 32
# (family, r, n): r is the rank of A, n the length of the Kraus list. Seven
# generic questions (about 2 s) to three mixtures (about 3.5 s, decomposed too),
# so the median falls inside the generic class, not between the two.
ROUND = [
    ("generic", 2, 3),
    ("generic", 3, 3),
    ("mixture", 2, 2),
    ("generic", 4, 5),
    ("generic", 5, 7),
    ("mixture", 3, 4),
    ("generic", 3, 5),
    ("generic", 4, 4),
    ("mixture", 2, 3),
    ("generic", 5, 5),
]
WARMUP = ("generic", 2, 2)


def _factor(rng, family: str, r: int) -> np.ndarray:
    if family == "mixture":
        weights = rng.dirichlet(np.ones(r))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(D, r))
        return np.sqrt(weights)[None, :] * np.exp(1j * phases)
    v = rng.normal(size=(D, r)) + 1j * rng.normal(size=(D, r))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _diagonals(rng, v: np.ndarray, n: int) -> np.ndarray:
    return v @ random_unitary(rng, n)[: v.shape[1], :]


def _question(rng, spec, ck) -> Question:
    family, r, n = spec
    v = _factor(rng, family, r)
    diags = _diagonals(rng, v, n)
    a = v @ np.conj(v).T
    energies = np.sort(rng.uniform(0.0, 10.0, size=D))
    channel = ck.channels.KrausMap([np.diag(diags[:, s]) for s in range(n)])
    hamiltonian = ck.classify.Hamiltonian(tuple(energies))

    @functools.cache
    def extremal() -> bool:
        return cross_product_rank(v) == r * r

    def ask():
        report = ck.classify.classify_channel(channel, hamiltonian)
        witness = ck.classify.gi_extremality(channel)
        terms = None if witness.extremal else ck.classify.mixed_unitary_decompose(channel)
        return report, witness, terms

    def check(answer) -> str:
        report, witness, terms = answer
        for flag in ("io", "fi", "gi", "sgi", "sio", "mio", "dio", "tio"):
            require(getattr(report, flag) is True, f"{family}: flag {flag} is not True")
        require(report.schur is not None, "no Schur matrix extracted")
        require(np.linalg.norm(report.schur.matrix - a) <= 1e-9 * D, "Schur matrix differs from V V^dag")
        require(witness.extremal == extremal(), f"{family} r={r}: extremal={witness.extremal}")
        if not extremal():
            require(terms is not None, "non-extremal channel reported as not mixed-unitary")
            weights = np.array([w for w, _ in terms])
            require(np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-9, "weights do not sum to 1")
            rebuilt = sum(w * np.outer(np.exp(1j * ph), np.exp(-1j * ph)) for w, ph in terms)
            require(np.linalg.norm(rebuilt - a) <= 1e-7, "decomposition does not rebuild A")
        return OK

    return Question(family, ask, check)


def build(seed: int) -> Workload:
    import cohkit as ck

    rng = rng_for(seed, "schur-d32")
    warmup = _question(rng, WARMUP, ck)
    return Workload([_question(rng, spec, ck) for spec in ROUND], warmup)
