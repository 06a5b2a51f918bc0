"""conversions: pure and mixed conversion questions at d = 3 to 8.

Families (the round lists how many of each):

- sgi:        sgi_optimal_probability, target support inside the source's
              or, for a few, outside it;
- gi_pure:    gi_deterministic_pure on pairs with equal or different moduli;
- gi_mixed:   gi_deterministic on rho -> A o rho, with every off-diagonal of
              rho nonzero, or with zeros that leave A to a PSD completion,
              or with a diagonal that does not match;
- sfi:        sfi_probability, whose d! scan dominates the round's time;
- fi_pure:    fi_deterministic_pure on pairs it decides: equal rank, rank-1
              target, rank increase, and intermediate rank at d <= 4 with at
              most two source labels per target label;
- fi_fault:   three fixed pairs fi_deterministic_pure leaves undecided
              (plus_4 -> (3/4, 1/4), plus_5 -> (3/5, 2/5), (.5,.3,.2) -> (.6,.4));
- sgi_search: sgi closed form against search_sgi_probability.
"""

from __future__ import annotations

import functools

import numpy as np

from question import FAILED, OK, Question, Workload, rng_for
from reference import (
    apply_map,
    coarse_grains,
    fidelity_to,
    min_ratio,
    one_form,
    require,
    sfi_scan,
    trace_preserving,
)

# 12 of 45 questions are sgi, the densest cost class near the median; the two
# sfi questions at d = 7 and 8 take most of the round's time.
ROUND = (
    [("sgi", d) for d in (3, 4, 5, 6, 7, 8, 3, 4, 5, 6, 7, 8)]
    + [("sgi_outside", d) for d in (4, 6)]
    + [("gi_pure_equal", d) for d in (3, 5, 7)]
    + [("gi_pure_differ", d) for d in (4, 6, 8)]
    + [("gi_mixed_full", d) for d in (3, 4)]
    + [("gi_mixed_completion", d) for d in (4, 5)]
    + [("gi_mixed_mismatch", d) for d in (3, 5)]
    + [("sfi", d) for d in (4, 5, 6, 7, 8)]
    + [("fi_equal", d) for d in (4, 6)]
    + [("fi_equal_differ", 5)]
    + [("fi_rank1", d) for d in (5, 7)]
    + [("fi_rank_up", 6)]
    + [("fi_intermediate", d) for d in (3, 4)]
    + [("fi_fault", k) for k in range(3)]
    + [("sgi_search", d) for d in (3, 4, 5)]
)
WARMUP = ("sgi", 4)

FAULT_PAIRS = [
    (np.full(4, 0.25), np.array([0.75, 0.25, 0.0, 0.0])),
    (np.full(5, 0.2), np.array([0.6, 0.4, 0.0, 0.0, 0.0])),
    (np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4, 0.0])),
]


def _phases(rng, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))


def _amplitudes(pops: np.ndarray, rng) -> np.ndarray:
    return np.sqrt(pops) * _phases(rng, pops.size)


def _pops(rng, d: int, support: int | None = None) -> np.ndarray:
    p = np.zeros(d)
    idx = rng.permutation(d)[: support or d]
    p[idx] = rng.uniform(0.2, 1.0, size=idx.size)
    return p / p.sum()


def _random_psd_unit_diag(rng, d: int) -> np.ndarray:
    # half of (1 - t) I + t u u^dag (unimodular u) plus half of a unit-row Gram matrix:
    # unit diagonal, least eigenvalue at least (1 - t) / 2
    u = _phases(rng, d)
    t = rng.uniform(0.3, 0.7)
    b = t * np.outer(u, np.conj(u)) + (1.0 - t) * np.eye(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return 0.5 * b + 0.5 * (g @ np.conj(g).T)


def _mixed_state(rng, d: int, blocks: list[list[int]] | None) -> np.ndarray:
    """Mixture of pure states; with blocks, each state lives on one block."""
    blocks = blocks or [list(range(d)), list(range(d))]
    rho = np.zeros((d, d), dtype=complex)
    weights = rng.dirichlet(np.ones(len(blocks)))
    for w, block in zip(weights, blocks):
        v = np.zeros(d, dtype=complex)
        v[block] = rng.normal(size=len(block)) + 1j * rng.normal(size=len(block))
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, np.conj(v))
    return rho


def _check_witness(witness, psi: np.ndarray, phi: np.ndarray, prob: float, what: str) -> None:
    out = apply_map(witness.kraus, np.outer(psi, np.conj(psi)))
    reached = float(np.real(np.trace(out)))
    require(abs(reached - prob) <= 1e-9, f"{what}: witness succeeds with {reached}, claimed {prob}")
    require(fidelity_to(phi, out) >= prob * (1.0 - 1e-9), f"{what}: witness misses the target")


def _coarse(rng, psq: np.ndarray, k: int, max_fibre: int) -> np.ndarray:
    """Populations of a random label map with k target labels and fibres <= max_fibre."""
    d = psq.size
    while True:
        f = rng.integers(0, k, size=d)
        counts = np.bincount(f, minlength=k)
        if counts.min() >= 1 and counts.max() <= max_fibre:
            break
    t = np.zeros(d)
    targets = rng.permutation(d)[:k]
    for j in range(d):
        t[targets[f[j]]] += psq[j]
    return t


def _question(rng, spec, ck) -> Question:
    family, d = spec
    S, V, O = ck.states, ck.convert, ck.oracle

    if family in ("sgi", "sgi_outside", "sgi_search"):
        psq = _pops(rng, d)
        tsq = _pops(rng, d, support=int(rng.integers(2, d + 1)))
        if family == "sgi_outside":
            psq = _pops(rng, d, support=d - 1)
            tsq = _pops(rng, d)
        psi_a, phi_a = _amplitudes(psq, rng), _amplitudes(tsq, rng)
        psi, phi = S.PureState(psi_a), S.PureState(phi_a)
        outside = bool(np.any((tsq > 0) & (psq == 0)))

        def ask():
            closed = V.sgi_optimal_probability(psi, phi)
            searched = O.search_sgi_probability(psi, phi) if family == "sgi_search" else None
            return closed, searched

        def check(answer) -> str:
            closed, searched = answer
            if outside:
                require(closed.possible is False and closed.probability == 0.0, "support violation not refused")
                return OK
            p = closed.probability
            require(closed.possible is True, "sgi conversion refused")
            require(abs(p - min_ratio(psq, tsq)) <= 1e-12, f"sgi probability {p}")
            support = tsq > 0
            require(np.all(p * tsq[support] <= psq[support] + 1e-12), "p |phi_i|^2 exceeds |psi_i|^2")
            _check_witness(closed.map, psi_a, phi_a, p, "sgi")
            if searched is not None:
                require(abs(searched - p) <= 1e-6, f"search found {searched}, closed form {p}")
            return OK

        return Question(family, ask, check)

    if family in ("gi_pure_equal", "gi_pure_differ"):
        psq = _pops(rng, d)
        tsq = psq if family == "gi_pure_equal" else _pops(rng, d)
        psi_a, phi_a = _amplitudes(psq, rng), _amplitudes(tsq, rng)
        psi, phi = S.PureState(psi_a), S.PureState(phi_a)

        def ask():
            return V.gi_deterministic_pure(psi, phi)

        def check(verdict) -> str:
            equal = family == "gi_pure_equal"
            require(verdict.possible is equal, f"gi pure verdict {verdict.possible}")
            if equal:
                require(all(np.count_nonzero(k - np.diag(np.diag(k))) == 0 for k in verdict.map.kraus), "witness not diagonal")
                _check_witness(verdict.map, psi_a, phi_a, 1.0, "gi pure")
            return OK

        return Question(family, ask, check)

    if family.startswith("gi_mixed"):
        blocks = None
        if family == "gi_mixed_completion":
            # labels 0 and d-1 never share a block, so rho has zeros there
            blocks = [list(range(0, d - 1)), list(range(1, d)), list(range(1, d - 1))]
        rho_m = _mixed_state(rng, d, blocks)
        a = _random_psd_unit_diag(rng, d)
        sigma_m = a * rho_m
        if family == "gi_mixed_mismatch":
            sigma_m = _mixed_state(rng, d, None)
        rho, sigma = S.DensityMatrix(rho_m), S.DensityMatrix(sigma_m)

        def ask():
            return V.gi_deterministic(rho, sigma)

        def check(verdict) -> str:
            if family == "gi_mixed_mismatch":
                require(verdict.possible is False, f"population mismatch verdict {verdict.possible}")
                return OK
            require(verdict.possible is True, f"gi mixed verdict {verdict.possible}")
            require(all(np.count_nonzero(k - np.diag(np.diag(k))) == 0 for k in verdict.map.kraus), "witness not diagonal")
            out = apply_map(verdict.map.kraus, rho_m)
            require(np.linalg.norm(out - sigma_m) <= 1e-7, "witness does not reach sigma")
            return OK

        return Question(family, ask, check)

    if family == "sfi":
        psq = _pops(rng, d)
        # even d: equal ranks, so the bound is exact and a witness comes back
        tsq = _pops(rng, d, support=d if d % 2 == 0 else d - 1)
        psi_a, phi_a = _amplitudes(psq, rng), _amplitudes(tsq, rng)
        psi, phi = S.PureState(psi_a), S.PureState(phi_a)

        def ask():
            return V.sfi_probability(psi, phi)

        scan = functools.cache(lambda: sfi_scan(psq, tsq))

        def check(bound) -> str:
            want = scan()
            require(abs(bound.lower_bound - want) <= 1e-12, f"sfi bound {bound.lower_bound}, scan {want}")
            exact = np.count_nonzero(psq) == np.count_nonzero(tsq)
            require(bound.exact == exact, "sfi exactness flag")
            if exact:
                _check_witness(bound.map, psi_a, phi_a, want, "sfi")
            return OK

        return Question(family, ask, check)

    # fully incoherent pure conversions
    if family == "fi_fault":
        psq, tsq = FAULT_PAIRS[d]
        d = psq.size
        psi_a, phi_a = np.sqrt(psq).astype(complex), np.sqrt(tsq).astype(complex)
    else:
        psq = _pops(rng, d)
        if family == "fi_equal":
            tsq = psq[rng.permutation(d)]
        elif family == "fi_equal_differ":
            tsq = _pops(rng, d)
        elif family == "fi_rank1":
            tsq = np.eye(d)[int(rng.integers(d))]
        elif family == "fi_rank_up":
            psq = _pops(rng, d, support=d - 2)
            tsq = _pops(rng, d)
        else:
            tsq = _coarse(rng, psq, d - 1, 2)
        psi_a, phi_a = _amplitudes(psq, rng), _amplitudes(tsq, rng)
    psi, phi = S.PureState(psi_a), S.PureState(phi_a)
    possible = functools.cache(lambda: coarse_grains(psq, tsq))

    def ask():
        return V.fi_deterministic_pure(psi, phi)

    def check(verdict) -> str:
        if verdict.possible is None:
            require(family == "fi_fault", f"{family}: undecided")
            return FAILED
        require(verdict.possible is possible(), f"{family}: verdict {verdict.possible}, coarse-graining says {possible()}")
        if verdict.possible:
            ops = verdict.map.kraus
            require(one_form(ops), "fi witness is not one-form")
            require(trace_preserving(ops), "fi witness is not trace preserving")
            out = apply_map(ops, np.outer(psi_a, np.conj(psi_a)))
            require(fidelity_to(phi_a, out) >= 1.0 - 1e-9, "fi witness misses the target")
        return OK

    return Question(family, ask, check)


def build(seed: int) -> Workload:
    import cohkit as ck

    rng = rng_for(seed, "conversions")
    warmup = _question(rng, WARMUP, ck)
    return Workload([_question(rng, spec, ck) for spec in ROUND], warmup)
