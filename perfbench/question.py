"""The unit of work: one question to cohkit, and the check of its answer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

OK = "ok"
FAILED = "failed"


@dataclass
class Question:
    """ask() calls cohkit and is the only timed part; check() runs afterwards.

    check(answer) returns OK, or FAILED when the answer is a known fault of
    the program (a verdict left undecided, an exit code that should not
    happen). It raises reference.CheckError when the answer is wrong.
    """

    family: str
    ask: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    questions: list[Question]
    warmup: Question
    cli: object = None  # the CliRunner of the cli workload


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def first_of_each_family(questions: list[Question]) -> list[Question]:
    seen: set[str] = set()
    picked = []
    for q in questions:
        if q.family not in seen:
            seen.add(q.family)
            picked.append(q)
    return picked
