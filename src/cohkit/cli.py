"""Command line front end: JSON documents in, one deterministic JSON report out.

Document kinds:

- state_vector:  {"kind": "state_vector", "data": [[re, im], ...]}
- density:       {"kind": "density", "re": [[..]], "im": [[..]]}
- channel_kraus: {"kind": "channel_kraus", "operators": [{"re": [[..]], "im": [[..]]}, ...]}
- channel_schur: {"kind": "channel_schur", "re": [[..]], "im": [[..]]}
- hamiltonian:   {"kind": "hamiltonian", "energies": [..]}

Exit codes: 0 result computed (the verdict's truth value is part of the
report, never the exit code), 2 unreadable or malformed document or bad
flag, 3 a well-formed document that fails validation or does not fit the
command, 4 a bounded search gave up before reaching a decision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance
from .states import DensityMatrix, PureState
from .channels import KrausMap, SchurMatrix, schur_map
from .classify import (
    BudgetExhaustedError,
    Hamiltonian,
    classify_channel,
    gi_extremality,
    mixed_unitary_decompose,
)
from .convert import (
    ConversionVerdict,
    fi_deterministic_pure,
    gi_deterministic,
    gi_deterministic_pure,
    reduce_joint,
    sfi_probability,
    sgi_optimal_probability,
)
from .oracle import SearchBudget

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4


class DocumentError(Exception):
    """Unreadable file, malformed JSON, or fields that do not match the kind."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top-level value must be an object")
    return doc


def _real_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise DocumentError(f"{where}: expected a two-dimensional matrix")
    try:
        a = np.asarray([[_number(x, where) for x in row] for row in obj], dtype=float)
    except ValueError as exc:
        raise DocumentError(f"{where}: expected a numeric matrix") from exc
    if a.ndim != 2:
        raise DocumentError(f"{where}: expected a two-dimensional matrix")
    return a


def _complex_parts(doc: dict, where: str) -> np.ndarray:
    if "re" not in doc or "im" not in doc:
        raise DocumentError(f"{where}: missing 're' or 'im' field")
    re = _real_matrix(doc["re"], where + ".re")
    im = _real_matrix(doc["im"], where + ".im")
    if re.shape != im.shape:
        raise DocumentError(f"{where}: 're' and 'im' shapes differ")
    return re + 1j * im


def _number(x, where: str) -> float:
    # JSON numbers only: null, strings and booleans are not entries
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise DocumentError(f"{where}: expected a number, got {x!r}") from exc


def _parse_document(path: str) -> tuple[str, object]:
    doc = _load_json(path)
    kind = doc.get("kind")
    if kind == "state_vector":
        data = doc.get("data")
        if not isinstance(data, list) or not data:
            raise DocumentError(f"{path}: state_vector needs a nonempty 'data' list")
        amps = []
        for row in data:
            if not isinstance(row, list) or len(row) != 2:
                raise DocumentError(f"{path}: each amplitude must be an [re, im] pair")
            amps.append(_number(row[0], f"{path}.data") + 1j * _number(row[1], f"{path}.data"))
        return kind, np.asarray(amps, dtype=complex)
    if kind in ("density", "channel_schur"):
        return kind, _complex_parts(doc, path)
    if kind == "channel_kraus":
        ops = doc.get("operators")
        if not isinstance(ops, list) or not ops:
            raise DocumentError(f"{path}: channel_kraus needs a nonempty 'operators' list")
        mats = []
        for pos, entry in enumerate(ops):
            if not isinstance(entry, dict):
                raise DocumentError(f"{path}: operator {pos} must be an object with 're'/'im'")
            mats.append(_complex_parts(entry, f"{path}.operators[{pos}]"))
        return kind, mats
    if kind == "hamiltonian":
        energies = doc.get("energies")
        if not isinstance(energies, list) or not energies:
            raise DocumentError(f"{path}: hamiltonian needs a nonempty 'energies' list")
        return kind, [_number(x, f"{path}.energies") for x in energies]
    raise DocumentError(f"{path}: unknown document kind {kind!r}")


def _expect_pure(path: str, tol: Tolerance) -> PureState:
    kind, payload = _parse_document(path)
    if kind != "state_vector":
        raise ValueError(f"{path}: expected a state_vector document, got {kind}")
    return PureState(payload, tol)


def _as_density(path: str, kind: str, payload, tol: Tolerance) -> DensityMatrix:
    if kind == "state_vector":
        return DensityMatrix(PureState(payload, tol).density(), tol)
    if kind == "density":
        return DensityMatrix(payload, tol)
    raise ValueError(f"{path}: expected a state document, got {kind}")


def _expect_channel(path: str, tol: Tolerance) -> KrausMap:
    kind, payload = _parse_document(path)
    if kind == "channel_kraus":
        return KrausMap(list(payload), tol)
    if kind == "channel_schur":
        return schur_map(SchurMatrix(payload, tol), tol)
    raise ValueError(f"{path}: expected a channel document, got {kind}")


def _expect_schur(path: str, tol: Tolerance) -> SchurMatrix:
    kind, payload = _parse_document(path)
    if kind != "channel_schur":
        raise ValueError(f"{path}: expected a channel_schur document, got {kind}")
    return SchurMatrix(payload, tol)


def _expect_hamiltonian(path: str) -> Hamiltonian:
    kind, payload = _parse_document(path)
    if kind != "hamiltonian":
        raise ValueError(f"{path}: expected a hamiltonian document, got {kind}")
    return Hamiltonian(tuple(payload))


def _matrix_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "re": [[float(x) for x in row] for row in a.real],
        "im": [[float(x) for x in row] for row in a.imag],
    }


def _kraus_json(m: KrausMap) -> dict:
    return {"kind": "channel_kraus", "operators": [_matrix_json(k) for k in m.kraus]}


def _schur_json(sm: SchurMatrix) -> dict:
    doc = _matrix_json(sm.matrix)
    doc["kind"] = "channel_schur"
    return doc


def _verdict_json(v: ConversionVerdict, emit_map: bool) -> dict:
    out: dict = {
        "possible": v.possible,
        "probability": v.probability,
        "reason": v.reason.value if v.reason is not None else None,
    }
    if emit_map:
        out["map"] = _kraus_json(v.map) if v.map is not None else None
    return out


def _print_report(command: str, rule: str, inputs: list[str], verdict: dict, tol: Tolerance, seed: int) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "rule": rule,
        "seed": seed,
        "tolerance": {"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
        "verdict": verdict,
    }
    print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_classify(args, tol: Tolerance, budget: SearchBudget) -> int:
    channel = _expect_channel(args.channel, tol)
    hamiltonian = _expect_hamiltonian(args.hamiltonian) if args.hamiltonian else None
    report = classify_channel(channel, hamiltonian, tol)
    verdict = {
        "io": report.io,
        "gi": report.gi,
        "sgi": report.sgi,
        "fi": report.fi,
        "sio": report.sio,
        "mio": report.mio,
        "dio": report.dio,
        "tio": report.tio,
        "schur": _matrix_json(report.schur.matrix) if report.schur is not None else None,
    }
    inputs = [args.channel] + ([args.hamiltonian] if args.hamiltonian else [])
    _print_report("classify", "operation-class-membership", inputs, verdict, tol, args.seed)
    return EXIT_OK


def _cmd_convert(args, tol: Tolerance, budget: SearchBudget) -> int:
    if args.mode == "gi":
        src, dst = _parse_document(args.source), _parse_document(args.target)
        if src[0] == dst[0] == "state_vector":
            verdict = gi_deterministic_pure(PureState(src[1], tol), PureState(dst[1], tol), tol)
            rule = "pure-conversion-equal-moduli"
        else:
            verdict = gi_deterministic(
                _as_density(args.source, *src, tol), _as_density(args.target, *dst, tol), tol, budget
            )
            rule = "population-preserving-completion"
    else:
        src = _expect_pure(args.source, tol)
        dst = _expect_pure(args.target, tol)
        verdict = fi_deterministic_pure(src, dst, tol, budget)
        rule = "rank-monotone-conversion"
    _print_report(
        f"convert {args.mode}",
        rule,
        [args.source, args.target],
        _verdict_json(verdict, args.emit_map),
        tol,
        args.seed,
    )
    return EXIT_BUDGET if verdict.possible is None else EXIT_OK


def _cmd_prob(args, tol: Tolerance, budget: SearchBudget) -> int:
    src = _expect_pure(args.source, tol)
    dst = _expect_pure(args.target, tol)
    if args.mode == "sgi":
        verdict = sgi_optimal_probability(src, dst, tol)
        payload = {
            "probability": verdict.probability,
            "reason": verdict.reason.value if verdict.reason is not None else None,
        }
        rule = "min-population-ratio"
    else:
        bound = sfi_probability(src, dst, tol)
        payload = {"lower_bound": bound.lower_bound, "exact": bound.exact}
        rule = "permuted-min-population-ratio"
    _print_report(f"prob {args.mode}", rule, [args.source, args.target], payload, tol, args.seed)
    return EXIT_OK


def _cmd_extremal(args, tol: Tolerance, budget: SearchBudget) -> int:
    channel = _expect_channel(args.channel, tol)
    witness = gi_extremality(channel, tol)
    verdict: dict = {
        "extremal": witness.extremal,
        "rank_found": witness.rank_found,
        "rank_required": witness.rank_required,
    }
    code = EXIT_OK
    if args.decompose:
        try:
            terms = mixed_unitary_decompose(channel, seed=args.seed, tol=tol)
        except BudgetExhaustedError as exc:
            verdict["decomposition"] = "budget_exhausted"
            verdict["detail"] = str(exc)
            code = EXIT_BUDGET
        else:
            if terms is None:
                verdict["decomposition"] = "not_mixed_unitary"
            else:
                verdict["decomposition"] = [
                    {"weight": float(w), "phases": [float(x) for x in phases]} for w, phases in terms
                ]
    _print_report("extremal", "independent-cross-term-vectors", [args.channel], verdict, tol, args.seed)
    return code


def _cmd_reduce(args, tol: Tolerance, budget: SearchBudget) -> int:
    joint = _expect_schur(args.joint, tol)
    sigma = _as_density(args.state, *_parse_document(args.state), tol)
    reduced = reduce_joint(joint, sigma, tol)
    doc = _schur_json(reduced)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
    _print_report(
        "reduce",
        "fixed-second-factor-reduction",
        [args.joint, args.state],
        {"reduced": doc},
        tol,
        args.seed,
    )
    return EXIT_OK


def _tolerance(text: str) -> float:
    # a zero tolerance rejects ordinary float documents, so only finite positive values parse
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Classify incoherence-compatible channels and decide basis-coherence conversions.",
    )
    tol_help = "abs_eps and rel_eps of every comparison, state validation included (finite, > 0)"
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL.abs_eps, help=tol_help)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    parser.add_argument("--budget", type=int, default=10000, help="iteration budget for searches")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="membership flags for a channel")
    p_classify.add_argument("channel")
    p_classify.add_argument("--hamiltonian", default=None)
    p_classify.set_defaults(func=_cmd_classify)

    p_convert = sub.add_parser("convert", help="decide a deterministic conversion")
    p_convert.add_argument("mode", choices=["gi", "fi"])
    p_convert.add_argument("source")
    p_convert.add_argument("target")
    p_convert.add_argument("--emit-map", action="store_true")
    p_convert.set_defaults(func=_cmd_convert)

    p_prob = sub.add_parser("prob", help="stochastic conversion probability")
    p_prob.add_argument("mode", choices=["sgi", "sfi"])
    p_prob.add_argument("source")
    p_prob.add_argument("target")
    p_prob.set_defaults(func=_cmd_prob)

    p_extremal = sub.add_parser("extremal", help="extremality of a unit-diagonal Schur channel")
    p_extremal.add_argument("channel")
    p_extremal.add_argument("--decompose", action="store_true")
    p_extremal.set_defaults(func=_cmd_extremal)

    p_reduce = sub.add_parser("reduce", help="reduce a joint Schur matrix over a fixed second factor")
    p_reduce.add_argument("joint")
    p_reduce.add_argument("state")
    p_reduce.add_argument("--out", default=None)
    p_reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    try:
        tol = Tolerance(abs_eps=args.tol, rel_eps=args.tol)
        budget = SearchBudget(max_iterations=args.budget, seed=args.seed)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args, tol, budget)
    except DocumentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID
    except BudgetExhaustedError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
