"""Reference computations that check cohkit's answers.

Nothing here imports cohkit. Each function computes from its definition the
quantity cohkit reports: the action of a map on basis units, flags from those
images, a brute-force permutation scan, set partitions of source labels.
"""

from __future__ import annotations

import itertools

import numpy as np


class CheckError(AssertionError):
    """A cohkit answer disagrees with the reference computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def apply_map(ops, x: np.ndarray) -> np.ndarray:
    """sum_s K_s x K_s^dag; x may be a stack of matrices."""
    out = np.zeros(x.shape, dtype=complex)
    for k in ops:
        out += k @ x @ np.conj(k).T
    return out


def unit_images(ops, d: int) -> np.ndarray:
    """images[i, j] = map(|i><j|): the map applied to the stack of all d^2 basis units."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return apply_map(ops, units).reshape(d, d, d, d)


def choi_from_images(images: np.ndarray) -> np.ndarray:
    """sum_ij |i><j| (x) map(|i><j|), with index (i, a) -> i*d + a."""
    d = images.shape[0]
    return images.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def column_rows(k: np.ndarray, eps: float) -> list[set[int]]:
    return [set(np.flatnonzero(np.abs(k[:, j]) > eps).tolist()) for j in range(k.shape[1])]


def incoherent(k: np.ndarray, eps: float = 1e-9) -> bool:
    return all(len(rows) <= 1 for rows in column_rows(k, eps))


def one_form(ops, eps: float = 1e-9) -> bool:
    d = ops[0].shape[1]
    for j in range(d):
        rows: set[int] = set()
        for k in ops:
            rows |= column_rows(k, eps)[j]
        if len(rows) > 1:
            return False
    return True


def flags_from_images(ops, images: np.ndarray, energies=None, eps: float = 1e-9) -> dict:
    """Membership flags by their definitions, from the operators and the images."""
    d = images.shape[0]
    off = ~np.eye(d, dtype=bool)
    diag_imgs = np.array([images[i, i] for i in range(d)])
    mio = all(np.max(np.abs(diag_imgs[i][off]), initial=0.0) <= eps for i in range(d))
    dio = mio and all(
        np.max(np.abs(np.diag(images[i, j]))) <= eps for i in range(d) for j in range(d) if i != j
    )
    # entrywise multiplication: map(|i><j|) = A_ij |i><j|
    schur = True
    a = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            img = images[i, j].copy()
            a[i, j] = img[i, j]
            img[i, j] = 0.0
            if np.max(np.abs(img)) > eps:
                schur = False
    gi = schur and bool(np.max(np.abs(np.real(np.diag(a)) - 1.0)) <= eps)
    io = all(incoherent(k, eps) for k in ops)
    flags = {
        "io": io,
        "fi": io and one_form(ops, eps),
        "sio": all(incoherent(k, eps) and incoherent(np.conj(k).T, eps) for k in ops),
        "mio": bool(mio),
        "dio": bool(dio),
        "gi": bool(gi),
        "sgi": bool(schur),
        "tio": None,
    }
    if energies is not None:
        e = np.asarray(energies, dtype=float)
        # time-covariant: map(|i><j|) may only hold |a><b| with E_a - E_b = E_i - E_j
        gap = e[:, None] - e[None, :]
        mismatch = np.abs(gap[None, None, :, :] - gap[:, :, None, None]) > 1e-9
        flags["tio"] = not bool(np.any(mismatch & (np.abs(images) > eps)))
    return flags, a


def matrix_rank(rows: np.ndarray, rel: float = 1e-9) -> int:
    sing = np.linalg.svd(rows, compute_uv=False)
    if sing.size == 0 or sing[0] <= 0.0:
        return 0
    return int(np.sum(sing > rel * sing[0]))


def cross_product_rank(factor: np.ndarray) -> int:
    """Rank of the r^2 vectors conj(v_i) * v_j over the columns v of factor."""
    r = factor.shape[1]
    rows = np.array([np.conj(factor[:, i]) * factor[:, j] for i in range(r) for j in range(r)])
    return matrix_rank(rows)


def sfi_scan(psq: np.ndarray, tsq: np.ndarray, eps: float = 1e-18) -> float:
    """max over relabelings sigma of min over the target support of psq[sigma(i)] / tsq[i]."""
    support = np.flatnonzero(tsq > eps)
    perms = np.array(list(itertools.permutations(range(psq.size))))
    worst = np.min(psq[perms[:, support]] / tsq[support], axis=1)
    return min(float(np.max(worst)), 1.0)


def set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for n in range(len(part)):
            yield part[:n] + [[first] + part[n]] + part[n + 1 :]


def coarse_grains(psq: np.ndarray, tsq: np.ndarray, eps: float = 1e-9) -> bool:
    """Whether some label map f has tsq[r] = sum over f(j) = r of psq[j]."""
    src = [j for j in range(psq.size) if psq[j] > eps]
    want = sorted(float(x) for x in tsq if x > eps)
    for part in set_partitions(src):
        if len(part) != len(want):
            continue
        sums = sorted(float(sum(psq[j] for j in block)) for block in part)
        if all(abs(a - b) <= eps for a, b in zip(sums, want)):
            return True
    return False


def fidelity_to(target: np.ndarray, out: np.ndarray) -> float:
    return float(np.real(np.conj(target) @ out @ target))


def trace_preserving(ops, eps: float = 1e-9) -> bool:
    d = ops[0].shape[1]
    s = sum(np.conj(k).T @ k for k in ops)
    return bool(np.max(np.abs(s - np.eye(d))) <= eps)


def min_ratio(psq: np.ndarray, tsq: np.ndarray, eps: float = 1e-18) -> float:
    support = tsq > eps
    return float(min(np.min(psq[support] / tsq[support]), 1.0))
