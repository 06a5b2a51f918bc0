"""Command line front end: JSON documents in, one deterministic JSON report out.

Each document is read once into the validated library object of its kind:

- state_vector (PureState):     {"kind": "state_vector", "data": [[re, im], ...]}
- density (DensityMatrix):      {"kind": "density", "re": [[..]], "im": [[..]]}
- channel_kraus (KrausMap):     {"kind": "channel_kraus", "operators": [{"re": [[..]], "im": [[..]]}, ...]}
- channel_schur (SchurMatrix):  {"kind": "channel_schur", "re": [[..]], "im": [[..]]}
- hamiltonian (Hamiltonian):    {"kind": "hamiltonian", "energies": [..]}

A CHANNEL takes channel_kraus or channel_schur, H hamiltonian, JOINT
channel_schur, the STATE of reduce and the states of convert gi density or
state_vector, and the states of convert fi and prob state_vector. A
state_vector is turned into its density for reduce, and for convert gi only
where the other state is a density. The CLI adds no defaults of its own:
without --budget each search runs on its library default, and --tol sets the
eps of the one Tolerance that every comparison reads (default 1e-9), a number
in (0, 1): from 1 on, the rank cut eps * top would keep no eigenvalue. The
report's "tolerance" gives that eps under both of its keys, so that reports
keep their layout. A state_vector with no amplitude above eps does not fit
convert fi or prob (exit 3).

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
from .channels import KrausMap, SchurMatrix
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
    except (ValueError, RecursionError) as exc:  # bad syntax, bytes that are not UTF-8, over-long ints, deep nesting
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
    # finite JSON numbers only: null, strings, booleans, integers beyond the float range
    # and what json reads as inf or nan (1e999, NaN, Infinity) are not entries
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            value = np.inf
        if np.isfinite(value):
            return value
    raise DocumentError(f"{where}: expected a number, got {x!r}")


def _parse_document(path: str, tol: Tolerance) -> tuple[str, object]:
    """The document's kind and its validated library object."""
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
        return kind, PureState(np.asarray(amps, dtype=complex), tol)
    if kind == "density":
        return kind, DensityMatrix(_complex_parts(doc, path), tol)
    if kind == "channel_schur":
        return kind, SchurMatrix(_complex_parts(doc, path), tol)
    if kind == "channel_kraus":
        ops = doc.get("operators")
        if not isinstance(ops, list) or not ops:
            raise DocumentError(f"{path}: channel_kraus needs a nonempty 'operators' list")
        mats = []
        for pos, entry in enumerate(ops):
            if not isinstance(entry, dict):
                raise DocumentError(f"{path}: operator {pos} must be an object with 're'/'im'")
            mats.append(_complex_parts(entry, f"{path}.operators[{pos}]"))
        return kind, KrausMap(mats, tol)
    if kind == "hamiltonian":
        energies = doc.get("energies")
        if not isinstance(energies, list) or not energies:
            raise DocumentError(f"{path}: hamiltonian needs a nonempty 'energies' list")
        return kind, Hamiltonian(tuple(_number(x, f"{path}.energies") for x in energies))
    raise DocumentError(f"{path}: unknown document kind {kind!r}")


def _read(path: str, tol: Tolerance, *kinds: str):
    """The validated object of the document at path, whose kind must be one of kinds."""
    kind, obj = _parse_document(path, tol)
    if kind not in kinds:
        raise ValueError(f"{path}: expected a {' or '.join(kinds)} document, got {kind}")
    return obj


def _density(state: PureState | DensityMatrix, tol: Tolerance) -> DensityMatrix:
    return state if isinstance(state, DensityMatrix) else DensityMatrix(state.density(), tol)


def _matrix_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "re": [[float(x) for x in row] for row in a.real],
        "im": [[float(x) for x in row] for row in a.imag],
    }


def _kraus_json(m: KrausMap) -> dict:
    return {"kind": "channel_kraus", "operators": [_matrix_json(k) for k in m.kraus]}


def _verdict_json(v: ConversionVerdict, emit_map: bool) -> dict:
    out: dict = {
        "possible": v.possible,
        "probability": v.probability,
        "reason": v.reason.value if v.reason is not None else None,
    }
    if emit_map:
        out["map"] = _kraus_json(v.map) if v.map is not None else None
    return out


# each command reads its documents and decides; it returns (rule, inputs, verdict, exit code)
# and main prints the report


def _cmd_classify(args, tol: Tolerance) -> tuple[str, list[str], dict, int]:
    channel = _read(args.channel, tol, "channel_kraus", "channel_schur")
    hamiltonian = _read(args.hamiltonian, tol, "hamiltonian") if args.hamiltonian else None
    report = classify_channel(channel, hamiltonian, tol)
    verdict = {flag: getattr(report, flag) for flag in ("io", "gi", "sgi", "fi", "sio", "mio", "dio", "tio")}
    verdict["schur"] = _matrix_json(report.schur.matrix) if report.schur is not None else None
    inputs = [path for path in (args.channel, args.hamiltonian) if path]
    return "operation-class-membership", inputs, verdict, EXIT_OK


def _cmd_convert(args, tol: Tolerance) -> tuple[str, list[str], dict, int]:
    budget = None if args.budget is None else SearchBudget(args.budget)
    if args.mode == "gi":
        src, dst = (_read(path, tol, "state_vector", "density") for path in (args.source, args.target))
        if isinstance(src, PureState) and isinstance(dst, PureState):
            verdict = gi_deterministic_pure(src, dst, tol)
            rule = "pure-conversion-equal-moduli"
        else:
            verdict = gi_deterministic(_density(src, tol), _density(dst, tol), tol, budget)
            rule = "population-preserving-completion"
    else:
        src, dst = (_read(path, tol, "state_vector") for path in (args.source, args.target))
        verdict = fi_deterministic_pure(src, dst, tol, budget)
        rule = "rank-monotone-conversion"
    code = EXIT_BUDGET if verdict.possible is None else EXIT_OK
    return rule, [args.source, args.target], _verdict_json(verdict, args.emit_map), code


def _cmd_prob(args, tol: Tolerance) -> tuple[str, list[str], dict, int]:
    src, dst = (_read(path, tol, "state_vector") for path in (args.source, args.target))
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
    return rule, [args.source, args.target], payload, EXIT_OK


def _cmd_extremal(args, tol: Tolerance) -> tuple[str, list[str], dict, int]:
    channel = _read(args.channel, tol, "channel_kraus", "channel_schur")
    witness = gi_extremality(channel, tol)
    verdict: dict = {name: getattr(witness, name) for name in ("extremal", "rank_found", "rank_required")}
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
    return "independent-cross-term-vectors", [args.channel], verdict, code


def _cmd_reduce(args, tol: Tolerance) -> tuple[str, list[str], dict, int]:
    joint = _read(args.joint, tol, "channel_schur")
    reduced = reduce_joint(joint, _density(_read(args.state, tol, "state_vector", "density"), tol), tol)
    doc = {**_matrix_json(reduced.matrix), "kind": "channel_schur"}
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
    return "fixed-second-factor-reduction", [args.joint, args.state], {"reduced": doc}, EXIT_OK


def _tolerance(text: str) -> float:
    # a zero tolerance rejects ordinary float documents, and one of 1 or more cuts away every eigenvalue
    # (Tolerance.rank_cut keeps those above eps times the top), so only values in (0, 1) parse
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _at_least(low: int):
    """argparse type of an integer flag that must be >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Classify incoherence-compatible channels and decide basis-coherence conversions.",
    )
    tol_help = "eps of every comparison, state validation included (0 < eps < 1)"
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL.eps, help=tol_help)
    parser.add_argument("--seed", type=_at_least(0), default=0, help="seed for randomized searches (>= 0)")
    budget_help = "iteration budget of convert's searches (>= 1); default: each search's own"
    parser.add_argument("--budget", type=_at_least(1), default=None, help=budget_help)
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    tol = Tolerance(args.tol)
    try:
        rule, inputs, verdict, code = args.func(args, tol)
    except (DocumentError, ValueError, BudgetExhaustedError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        if isinstance(exc, DocumentError):
            return EXIT_PARSE
        return EXIT_INVALID if isinstance(exc, ValueError) else EXIT_BUDGET
    report = {
        "command": " ".join(filter(None, (args.command, getattr(args, "mode", None)))),
        "inputs": inputs,
        "rule": rule,
        "seed": args.seed,
        "tolerance": {"abs_eps": tol.eps, "rel_eps": tol.eps},
        "verdict": verdict,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
