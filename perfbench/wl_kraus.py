"""kraus-d16: classify general (non-diagonal) Kraus maps at d=16.

Four families, each built so that its flags are known from the construction:

- cptp:    random Stinespring isometry, no structure;
- fi:      one-form maps, column j of every operator lands in row f(j) with f
           not injective (fibres of at most n labels);
- permmix: mixtures of permutation-times-phase operators with different
           permutations, incoherent but not one-form, so expose_hidden_coherence
           runs on them;
- sio:     one shared permutation times diagonal weights, so operators and
           adjoints are incoherent.
"""

from __future__ import annotations

import functools

import numpy as np

from question import OK, Question, Workload, random_unitary, rng_for
from reference import choi_from_images, flags_from_images, incoherent, require, unit_images

D = 16
# (family, n operators, with Hamiltonian). A Hamiltonian makes a question about
# three times dearer (the tio superoperator), so only 4 of 16 carry one and the
# median falls among the others.
ROUND = [
    ("cptp", 2, False),
    ("fi", 2, False),
    ("permmix", 2, False),
    ("sio", 2, True),
    ("cptp", 3, True),
    ("fi", 3, False),
    ("permmix", 3, False),
    ("sio", 3, False),
    ("cptp", 4, False),
    ("fi", 4, True),
    ("permmix", 4, False),
    ("sio", 4, False),
    ("cptp", 2, False),
    ("fi", 2, False),
    ("permmix", 3, True),
    ("sio", 2, False),
]
WARMUP = ("cptp", 2, True)


def _operators(rng, family: str, n: int) -> list[np.ndarray]:
    ops = [np.zeros((D, D), dtype=complex) for _ in range(n)]
    if family == "cptp":
        q = random_unitary(rng, n * D)[:, :D]
        return [q[s * D : (s + 1) * D, :] for s in range(n)]
    if family == "fi":
        labels = rng.permutation(D)
        targets = rng.permutation(D)
        start = 0
        for fibre in range(D):
            size = min(int(rng.integers(2, n + 1)), D - start)
            if size <= 0:
                break
            frame = random_unitary(rng, n)
            for pos, j in enumerate(labels[start : start + size]):
                for s in range(n):
                    ops[s][targets[fibre], j] = frame[s, pos]
            start += size
        return ops
    if family == "permmix":
        weights = rng.dirichlet(np.ones(n))
        for s in range(n):
            perm = rng.permutation(D)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=D))
            ops[s][perm, np.arange(D)] = np.sqrt(weights[s]) * phases
        return ops
    # sio: one permutation, diagonal weights whose columns are unit vectors
    perm = rng.permutation(D)
    for j in range(D):
        col = rng.normal(size=n) + 1j * rng.normal(size=n)
        col /= np.linalg.norm(col)
        for s in range(n):
            ops[s][perm[j], j] = col[s]
    return ops


def _question(rng, spec, ck) -> Question:
    family, n, with_h = spec
    ops = _operators(rng, family, n)
    energies = np.sort(rng.uniform(0.0, 10.0, size=D)) if with_h else None
    channel = ck.channels.KrausMap(ops)
    hamiltonian = ck.classify.Hamiltonian(tuple(energies)) if with_h else None

    def ask():
        report = ck.classify.classify_channel(channel, hamiltonian)
        exposed = None
        if report.io and not report.fi:
            exposed = ck.classify.expose_hidden_coherence(channel)
        return report, exposed

    @functools.cache
    def reference():
        images = unit_images(ops, D)
        return (images, *flags_from_images(ops, images, energies))

    def check(answer) -> str:
        report, exposed = answer
        images, expected, a = reference()
        construction = {
            "cptp": {"io": False, "fi": False, "sio": False},
            "fi": {"io": True, "fi": True, "sio": False},
            "permmix": {"io": True, "fi": False, "sio": True},
            "sio": {"io": True, "fi": True, "sio": True},
        }[family]
        for flag, value in construction.items():
            require(expected[flag] == value, f"{family}: reference {flag} disagrees with the construction")
        for flag, value in expected.items():
            require(getattr(report, flag) == value, f"{family}: {flag}={getattr(report, flag)}, expected {value}")
        require((report.schur is not None) == expected["sgi"], f"{family}: Schur matrix presence")
        if report.schur is not None:
            require(np.linalg.norm(report.schur.matrix - a) <= 1e-9 * D, "Schur matrix differs")
        if expected["io"] and not expected["fi"]:
            require(exposed is not None, "no hidden-coherence witness")
            gap = choi_from_images(unit_images(exposed.kraus, D)) - choi_from_images(images)
            require(np.linalg.norm(gap) <= 1e-9 * D, "witness has another Choi matrix")
            require(any(not incoherent(k) for k in exposed.kraus), "witness has no coherent operator")
        else:
            require(exposed is None, "witness returned for a one-form or coherent map")
        return OK

    return Question(family, ask, check)


def build(seed: int) -> Workload:
    import cohkit as ck

    rng = rng_for(seed, "kraus-d16")
    warmup = _question(rng, WARMUP, ck)
    return Workload([_question(rng, spec, ck) for spec in ROUND], warmup)
