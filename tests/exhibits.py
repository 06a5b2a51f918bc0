"""The paper's worked examples, built for the tests to check cohkit's verdicts on.

Each exhibit builds a channel, a map or a two-copy protocol from the paper,
or, for pio_pattern_gap, scans one by brute force. None of them is a decider.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cohkit.channels import KrausMap, apply
from cohkit.convert import ConversionVerdict, fi_deterministic_pure, gi_deterministic
from cohkit.linalg import DEFAULT_TOL, ROUNDOFF_SUM, Tolerance, dagger
from cohkit.states import DensityMatrix, PureState, plus_state


@dataclass
class ActivationDemo:
    joint_map: KrausMap
    joint_output: np.ndarray
    reduced_output: DensityMatrix
    one_copy_possible: bool
    single_copy_verdicts: list[ConversionVerdict]



def extremal_nonunitary_gi_kraus(d: int = 4) -> KrausMap:
    """Two diagonal Kraus operators forming an extremal non-unitary Schur channel.

    Entries a_k = 1/k and b_k = i^k * sqrt(1 - 1/k^2) for k = 1..d; for d = 4
    the four moduli/cross-term vectors are linearly independent, so the
    channel is extremal although it is not a unitary.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    k = np.arange(1, d + 1, dtype=float)
    a = 1.0 / k
    b = (1j ** np.arange(1, d + 1)) * np.sqrt(1.0 - a**2)
    return KrausMap([np.diag(a.astype(complex)), np.diag(b)])


def pio_witness_channel(theta: float) -> KrausMap:
    """Four-level unit-diagonal Schur channel used to separate Schur channels
    from mixtures of permutation-style isometries."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    k1 = np.diag(np.array([1.0, 0.0, c, c], dtype=complex))
    k2 = np.diag(np.array([0.0, 1.0, s, 1j * s], dtype=complex))
    return KrausMap([k1, k2])


def pio_pattern_gap(theta: float, grid_points: int = 200) -> float:
    """Smallest deviation, over a phase grid, from the modulus pattern a
    permutation-style representation of pio_witness_channel would force.

    Any such representation needs a combination L = alpha*K1 + beta*K2 with
    nonzero alpha, beta whose diagonal entries each vanish or share one
    modulus. The first two entries force |alpha| = |beta|, so the grid scans
    the two phases at unit modulus and measures how far the remaining two
    entries stay from the pattern. A strictly positive return value means no
    combination on the grid attains the pattern.
    """
    c, s = float(np.cos(theta)), float(np.sin(theta))
    ph = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    alpha = np.exp(1j * ph)[:, None]
    beta = np.exp(1j * ph)[None, :]
    l3 = np.abs(c * alpha + s * beta)
    l4 = np.abs(c * alpha + 1j * s * beta)
    dev3 = np.minimum(np.abs(l3 - 1.0), l3)
    dev4 = np.minimum(np.abs(l4 - 1.0), l4)
    return float(np.min(np.maximum(dev3, dev4)))



def build_fi_rank2_map(a, b, c, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Two-branch fully incoherent qutrit map sending rank-3 states to rank-2 ones.

    Branch i is [[a_i, 0, c_i], [0, b_i, 0], [0, 0, 0]]. Trace preservation
    pins sum |a_i|^2 = sum |b_i|^2 = sum |c_i|^2 = 1 and a . conj(c) = 0,
    all enforced within tol.eps / 10.
    """
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    cv = np.asarray(c, dtype=complex)
    if av.shape != (2,) or bv.shape != (2,) or cv.shape != (2,):
        raise ValueError("parameters must be pairs (two branches)")
    for name, vec in (("a", av), ("b", bv), ("c", cv)):
        if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > tol.eps / 10:
            raise ValueError(f"column normalization violated for {name}")
    if abs(complex(np.sum(av * np.conj(cv)))) > tol.eps / 10:
        raise ValueError("cross-column orthogonality a . conj(c) = 0 violated")
    ops = []
    for i in range(2):
        k = np.zeros((3, 3), dtype=complex)
        k[0, 0] = av[i]
        k[0, 2] = cv[i]
        k[1, 1] = bv[i]
        ops.append(k)
    return KrausMap(ops, tol)



def fi_activation_demo(tol: Tolerance = DEFAULT_TOL) -> ActivationDemo:
    """Two copies of the uniform qubit state reach a state whose single copy is blocked.

    The witness of fi_deterministic_pure takes the product of two uniform
    qubits to the pure state (1+i, 1, 0, 1)/2, whose first marginal has
    populations (3/4, 1/4). One copy alone cannot reach that marginal: its
    populations are (1/2, 1/2) under every relabeling, and unit-diagonal
    Schur channels preserve populations."""
    source = plus_state(4)
    joint = fi_deterministic_pure(source, PureState(np.array([1 + 1j, 1, 0, 1]) / 2, tol), tol).map
    out, prob = apply(joint, source.density())
    if abs(prob - 1.0) > ROUNDOFF_SUM:
        raise AssertionError("activation map must be trace preserving on the product state")
    reduced = DensityMatrix(np.einsum("ikjk->ij", out.reshape(2, 2, 2, 2)), tol)  # trace out the second qubit
    marginal = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex), tol)
    verdicts = []
    for mapping in ((0, 1), (1, 0)):
        p_unitary = np.eye(2, dtype=complex)[:, list(mapping)]
        permuted = DensityMatrix(p_unitary @ plus_state(2).density() @ dagger(p_unitary), tol)
        verdicts.append(gi_deterministic(permuted, marginal, tol))
    one_copy = any(v.possible is True for v in verdicts)
    return ActivationDemo(
        joint_map=joint,
        joint_output=out,
        reduced_output=reduced,
        one_copy_possible=one_copy,
        single_copy_verdicts=verdicts,
    )

