"""cli: one `python -m cohkit.cli` process per question, documents at d <= 4.

Set-up writes the JSON documents; each question runs one subcommand on them
and checks the exit code and the parsed report against the reference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from question import FAILED, OK, Question, Workload, random_unitary, rng_for
from reference import (
    CheckError,
    apply_map,
    cross_product_rank,
    fidelity_to,
    flags_from_images,
    min_ratio,
    one_form,
    require,
    sfi_scan,
    trace_preserving,
    unit_images,
)

SHIM = Path(__file__).resolve().parent / "cli_child.py"

# the paper's six sgi probabilities between chi, plus_3 and psi
CHI = np.array([np.sqrt(0.5), 0.5, 0.5], dtype=complex)
PSI = np.array([0.5, np.sqrt(5.0 / 8.0), np.sqrt(1.0 / 8.0)], dtype=complex)
PLUS = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
SEXTUPLE = [
    ("chi", "plus", 3.0 / 4.0),
    ("plus", "chi", 2.0 / 3.0),
    ("plus", "psi", 8.0 / 15.0),
    ("psi", "plus", 3.0 / 8.0),
    ("psi", "chi", 1.0 / 2.0),
    ("chi", "psi", 2.0 / 5.0),
]


class CliRunner:
    """Runs one cohkit CLI process; traced runs go through cli_child.py."""

    def __init__(self, root: Path, docs: Path) -> None:
        self.root = root
        self.docs = docs
        self.traced = False
        self.times_path = docs / "child_times.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PERFBENCH_CHILD_TIMES=str(self.times_path))

    def __call__(self, args: list[str]):
        entry = [str(SHIM)] if self.traced else ["-m", "cohkit.cli"]
        proc = subprocess.run(
            [sys.executable] + entry + args,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout


def _matrix_doc(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _state_doc(v: np.ndarray) -> dict:
    return {"kind": "state_vector", "data": [[float(x.real), float(x.imag)] for x in v]}


def _matrix(doc: dict) -> np.ndarray:
    return np.array(doc["re"]) + 1j * np.array(doc["im"])


def _kraus(doc: dict) -> list[np.ndarray]:
    return [_matrix(op) for op in doc["operators"]]


def _unit_vector(rng, d: int, support: int | None = None) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    idx = rng.permutation(d)[: support or d]
    v[idx] = rng.uniform(0.3, 1.0, size=idx.size) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=idx.size))
    return v / np.linalg.norm(v)


def _report(out: str) -> dict:
    try:
        return json.loads(out)["verdict"]
    except (ValueError, KeyError) as exc:
        raise CheckError(f"unreadable report: {exc}") from exc


class _Docs:
    def __init__(self, folder: Path) -> None:
        self.folder = folder
        folder.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, doc: dict) -> str:
        path = self.folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def _questions(rng, docs: _Docs, cli: CliRunner) -> list[Question]:
    qs: list[Question] = []

    def add(family, args, check):
        qs.append(Question(family, lambda: cli(args), check))

    def ok_report(answer) -> dict:
        code, out = answer
        require(code == 0, f"exit code {code}")
        return _report(out)

    # classify: a permutation mixture at d=3 and a random channel at d=4 with a Hamiltonian
    for name, d, with_h in (("permmix", 3, False), ("cptp", 4, True)):
        if name == "permmix":
            w = rng.dirichlet(np.ones(2))
            ops = []
            for s in range(2):
                k = np.zeros((d, d), dtype=complex)
                k[rng.permutation(d), np.arange(d)] = np.sqrt(w[s]) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
                ops.append(k)
        else:
            q = random_unitary(rng, 2 * d)[:, :d]
            ops = [q[:d], q[d:]]
        energies = np.sort(rng.uniform(0.0, 5.0, size=d)) if with_h else None
        args = ["classify", docs.put(f"classify_{name}", {"kind": "channel_kraus", "operators": [_matrix_doc(k) for k in ops]})]
        if with_h:
            args += ["--hamiltonian", docs.put("hamiltonian", {"kind": "hamiltonian", "energies": energies.tolist()})]

        def check(answer, ops=ops, energies=energies, d=d):
            verdict = ok_report(answer)
            expected, _ = flags_from_images(ops, unit_images(ops, d), energies)
            for flag, value in expected.items():
                require(verdict[flag] == value, f"classify {flag}={verdict[flag]}, expected {value}")
            return OK

        add("classify", args, check)

    # classify a Schur matrix at d=4
    v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    a4 = v @ np.conj(v).T
    a4 = a4 / np.sqrt(np.outer(np.real(np.diag(a4)), np.real(np.diag(a4))))
    path = docs.put("schur4", dict(kind="channel_schur", **_matrix_doc(a4)))

    def check_schur(answer):
        verdict = ok_report(answer)
        for flag in ("io", "fi", "gi", "sgi", "sio", "mio", "dio"):
            require(verdict[flag] is True, f"classify schur: {flag} is not True")
        require(np.linalg.norm(_matrix(verdict["schur"]) - a4) <= 1e-8, "Schur matrix differs")
        return OK

    add("classify", ["classify", path], check_schur)

    # convert gi: pure pair with equal moduli, and a mixed pair rho -> A o rho
    psi = _unit_vector(rng, 4)
    phi = np.abs(psi) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    src, dst = docs.put("gi_src", _state_doc(psi)), docs.put("gi_dst", _state_doc(phi))

    def check_gi_pure(answer, psi=psi, phi=phi):
        verdict = ok_report(answer)
        require(verdict["possible"] is True, "gi pure conversion refused")
        out = apply_map(_kraus(verdict["map"]), np.outer(psi, np.conj(psi)))
        require(fidelity_to(phi, out) >= 1.0 - 1e-9, "gi witness misses the target")
        return OK

    add("convert_gi", ["convert", "gi", src, dst, "--emit-map"], check_gi_pure)

    vs = [_unit_vector(rng, 3) for _ in range(2)]
    w = rng.dirichlet(np.ones(2))
    rho = sum(wi * np.outer(x, np.conj(x)) for wi, x in zip(w, vs))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    sigma = (g @ np.conj(g).T) * rho
    src = docs.put("gi_rho", dict(kind="density", **_matrix_doc(rho)))
    dst = docs.put("gi_sigma", dict(kind="density", **_matrix_doc(sigma)))

    def check_gi_mixed(answer):
        verdict = ok_report(answer)
        require(verdict["possible"] is True, "gi mixed conversion refused")
        require(np.linalg.norm(apply_map(_kraus(verdict["map"]), rho) - sigma) <= 1e-7, "witness misses sigma")
        return OK

    add("convert_gi", ["convert", "gi", src, dst, "--emit-map"], check_gi_mixed)

    # convert fi: a relabeled pair of equal rank, and qutrit -> qubit-support pair
    psi = _unit_vector(rng, 4)
    phi = psi[rng.permutation(4)] * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    psi3 = _unit_vector(rng, 3)
    pops = np.abs(psi3) ** 2
    phi3 = np.array([np.sqrt(pops[0] + pops[1]), np.sqrt(pops[2]), 0.0], dtype=complex)
    for name, s, t in (("fi_equal", psi, phi), ("fi_merge", psi3, phi3)):
        src, dst = docs.put(f"{name}_src", _state_doc(s)), docs.put(f"{name}_dst", _state_doc(t))

        def check_fi(answer, s=s, t=t):
            verdict = ok_report(answer)
            require(verdict["possible"] is True, "fi conversion refused")
            ops = _kraus(verdict["map"])
            require(one_form(ops) and trace_preserving(ops), "fi witness is not one-form and trace preserving")
            require(fidelity_to(t, apply_map(ops, np.outer(s, np.conj(s)))) >= 1.0 - 1e-9, "fi witness misses")
            return OK

        add("convert_fi", ["convert", "fi", src, dst, "--emit-map"], check_fi)

    # prob sgi and sfi on random pairs at d=4
    s, t = _unit_vector(rng, 4), _unit_vector(rng, 4, support=3)
    src, dst = docs.put("prob_src", _state_doc(s)), docs.put("prob_dst", _state_doc(t))
    psq, tsq = np.abs(s) ** 2, np.abs(t) ** 2

    def check_sgi(answer):
        verdict = ok_report(answer)
        require(abs(verdict["probability"] - min_ratio(psq, tsq)) <= 1e-12, "sgi probability")
        return OK

    def check_sfi(answer):
        verdict = ok_report(answer)
        require(abs(verdict["lower_bound"] - sfi_scan(psq, tsq)) <= 1e-12, "sfi bound")
        require(verdict["exact"] is False, "sfi exactness flag")
        return OK

    add("prob_sgi", ["prob", "sgi", src, dst], check_sgi)
    add("prob_sfi", ["prob", "sfi", src, dst], check_sfi)

    # extremal --decompose: a mixture of two diagonal unitaries at d=3, a rank-2 channel at d=4
    for name, d in (("mixture", 3), ("generic", 4)):
        if name == "mixture":
            w = rng.dirichlet(np.ones(2))
            factor = np.sqrt(w)[None, :] * np.exp(1j * rng.uniform(0, 2 * np.pi, (d, 2)))
        else:
            factor = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
            factor /= np.linalg.norm(factor, axis=1, keepdims=True)
        a = factor @ np.conj(factor).T
        extremal = cross_product_rank(factor) == 4
        path = docs.put(f"extremal_{name}", dict(kind="channel_schur", **_matrix_doc(a)))

        def check_extremal(answer, a=a, extremal=extremal):
            verdict = ok_report(answer)
            require(verdict["extremal"] is extremal, f"extremal={verdict['extremal']}")
            if extremal:
                require(verdict["decomposition"] == "not_mixed_unitary", "extremal channel decomposed")
                return OK
            terms = verdict["decomposition"]
            weights = np.array([t["weight"] for t in terms])
            require(abs(weights.sum() - 1.0) <= 1e-9, "weights do not sum to 1")
            rebuilt = sum(
                t["weight"] * np.outer(np.exp(1j * np.array(t["phases"])), np.exp(-1j * np.array(t["phases"])))
                for t in terms
            )
            require(np.linalg.norm(rebuilt - a) <= 1e-7, "decomposition does not rebuild A")
            return OK

        add("extremal", ["extremal", path, "--decompose"], check_extremal)

    # reduce: joint unit-diagonal Schur matrix on 2 x 2 labels, second factor fixed
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    joint = g @ np.conj(g).T
    x = _unit_vector(rng, 2)
    state = 0.7 * np.outer(x, np.conj(x)) + 0.3 * np.diag([0.5, 0.5])
    jpath = docs.put("joint", dict(kind="channel_schur", **_matrix_doc(joint)))
    spath = docs.put("joint_state", dict(kind="density", **_matrix_doc(state)))
    reduced = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                reduced[i, j] += joint[2 * i + k, 2 * j + k] * state[k, k]

    def check_reduce(answer):
        verdict = ok_report(answer)
        require(np.linalg.norm(_matrix(verdict["reduced"]) - reduced) <= 1e-9, "reduced matrix differs")
        return OK

    add("reduce", ["reduce", jpath, spath], check_reduce)

    # the paper's sextuple of sgi probabilities
    named = {"chi": CHI, "plus": PLUS, "psi": PSI}
    paths = {n: docs.put(f"paper_{n}", _state_doc(v)) for n, v in named.items()}
    for a_name, b_name, value in SEXTUPLE:

        def check_paper(answer, value=value):
            verdict = ok_report(answer)
            require(abs(verdict["probability"] - value) <= 1e-10, f"paper value {value}: {verdict['probability']}")
            return OK

        add("paper", ["prob", "sgi", paths[a_name], paths[b_name]], check_paper)

    # known fault: --tol 1e-6 does not reach the norm check of PureState
    loose = CHI * np.sqrt(1.0 + 1e-8)
    lpath = docs.put("loose_chi", _state_doc(loose))

    def check_loose(answer):
        code, out = answer
        if code == 3:
            return FAILED
        verdict = ok_report(answer)
        require(abs(verdict["probability"] - 0.75) <= 1e-6, "loose-norm probability")
        return OK

    add("tol_fault", ["--tol", "1e-6", "prob", "sgi", lpath, paths["plus"]], check_loose)
    return qs


def build(seed: int, root: Path, docs_dir: Path) -> Workload:
    rng = rng_for(seed, "cli")
    cli = CliRunner(root, docs_dir)
    questions = _questions(rng, _Docs(docs_dir), cli)
    return Workload(questions, questions[0], cli)
