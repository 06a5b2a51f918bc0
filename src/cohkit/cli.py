"""Command line front end: JSON documents in, one deterministic JSON report out.

Document kinds:

- state_vector:  {"kind": "state_vector", "data": [[re, im], ...]}
- density:       {"kind": "density", "re": [[..]], "im": [[..]]}
- channel_kraus: {"kind": "channel_kraus", "operators": [{"re": [[..]], "im": [[..]]}, ...]}
- channel_schur: {"kind": "channel_schur", "re": [[..]], "im": [[..]]}
- hamiltonian:   {"kind": "hamiltonian", "energies": [..]}

Exit codes: 0 result computed (the verdict's truth value is part of the
report, never the exit code), 2 unreadable or malformed document, 3 a
well-formed document that fails validation or does not fit the command,
4 a bounded search gave up before reaching a decision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .linalg import Tolerance, dagger, frobenius, partial_trace_second
from .states import DensityMatrix, PureState, plus_state
from .channels import (
    KrausMap,
    SchurMatrix,
    apply,
    choi_matrix,
    schur_map,
)
from .classify import (
    BudgetExhaustedError,
    Hamiltonian,
    classify_channel,
    expose_hidden_coherence,
    extremal_nonunitary_gi_kraus,
    gi_extremality,
    is_incoherent_operator,
    mixed_unitary_decompose,
)
from .convert import (
    ConversionVerdict,
    fi_activation_demo,
    fi_deterministic_pure,
    gi_deterministic,
    gi_deterministic_pure,
    plus3_reachable,
    plus3_witness,
    reduce_joint,
    sfi_probability,
    sgi_optimal_probability,
)
from .oracle import SearchBudget

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4

_DEMOS = ("plus3", "activation", "nonconvex", "extremal", "no-total-order")


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
    return PureState(payload)


def _expect_density(path: str, tol: Tolerance) -> DensityMatrix:
    kind, payload = _parse_document(path)
    if kind == "state_vector":
        return DensityMatrix(PureState(payload).density())
    if kind == "density":
        return DensityMatrix(payload)
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
        src_kind, _ = _parse_document(args.source)
        dst_kind, _ = _parse_document(args.target)
        if src_kind == "state_vector" and dst_kind == "state_vector":
            verdict = gi_deterministic_pure(_expect_pure(args.source, tol), _expect_pure(args.target, tol), tol)
            rule = "pure-conversion-equal-moduli"
        else:
            verdict = gi_deterministic(
                _expect_density(args.source, tol), _expect_density(args.target, tol), tol, budget
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
    sigma = _expect_density(args.state, tol)
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


def _demo_plus3(tol: Tolerance) -> dict:
    source = plus_state(3)
    targets = {
        "erase": np.array([1.0, 0.0, 0.0], dtype=complex),
        "rank2": np.array(
            [np.sqrt(2.0 / 3.0) * np.exp(1j * np.pi / 4.0), np.sqrt(1.0 / 3.0), 0.0]
        ),
        "identity": source.amplitudes,
    }
    checks = {}
    ok = True
    for kind, target in targets.items():
        witness = plus3_witness(kind, tol)
        out, prob = apply(witness, source.density())
        fid = float(np.real(np.conj(target) @ out @ target))
        reachable = plus3_reachable(PureState(target), tol)
        flags = classify_channel(witness, tol=tol)
        good = bool(reachable and flags.fi and abs(prob - 1.0) <= 1e-10 and fid >= 1.0 - 1e-10)
        checks[kind] = {"reachable": reachable, "fidelity": fid, "fi": flags.fi, "ok": good}
        ok = ok and good
    stranger = PureState(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0], dtype=complex))
    rejected = not plus3_reachable(stranger, tol)
    ok = ok and rejected
    return {"pass": ok, "targets": checks, "unreachable_pattern_rejected": rejected}


def _demo_activation(tol: Tolerance) -> dict:
    demo = fi_activation_demo(tol)
    expected = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    close = frobenius(demo.reduced_output.matrix - expected) <= 1e-12
    reasons = [v.reason.value if v.reason else None for v in demo.single_copy_verdicts]
    flags = classify_channel(demo.joint_map, tol=tol)
    ok = bool(close and flags.fi and not demo.one_copy_possible)
    return {
        "pass": ok,
        "joint_map_fi": flags.fi,
        "reduced": _matrix_json(demo.reduced_output.matrix),
        "one_copy_possible": demo.one_copy_possible,
        "single_copy_reasons": reasons,
    }


def _demo_nonconvex(tol: Tolerance) -> dict:
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    phase = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    root = np.sqrt(0.5)
    mixture = KrausMap([root * flip, root * phase], tol)
    flags = classify_channel(mixture, tol=tol)
    witness = expose_hidden_coherence(mixture, tol)
    ok = bool(flags.io and not flags.fi and witness is not None)
    coherent_op = False
    choi_gap = None
    if witness is not None:
        coherent_op = any(not is_incoherent_operator(k, tol) for k in witness.kraus)
        choi_gap = float(frobenius(choi_matrix(witness) - choi_matrix(mixture)))
        ok = ok and coherent_op and choi_gap <= 1e-10 * mixture.dim
    return {
        "pass": ok,
        "io": flags.io,
        "fi": flags.fi,
        "witness_has_coherent_operator": coherent_op,
        "choi_gap": choi_gap,
        "witness": _kraus_json(witness) if witness is not None else None,
    }


def _demo_extremal(tol: Tolerance, seed: int) -> dict:
    channel = extremal_nonunitary_gi_kraus(4)
    witness = gi_extremality(channel, tol)
    nonunitary = len(channel.kraus) > 1
    try:
        terms = mixed_unitary_decompose(channel, seed=seed, tol=tol)
    except BudgetExhaustedError:
        terms = None
    ok = bool(witness.extremal and nonunitary and terms is None)
    return {
        "pass": ok,
        "extremal": witness.extremal,
        "rank_found": witness.rank_found,
        "rank_required": witness.rank_required,
        "decomposition": "not_mixed_unitary" if terms is None else "unexpected",
    }


def _demo_no_total_order(tol: Tolerance) -> dict:
    chi = PureState(np.array([np.sqrt(0.5), 0.5, 0.5], dtype=complex))
    psi = PureState(np.array([0.5, np.sqrt(5.0 / 8.0), np.sqrt(1.0 / 8.0)], dtype=complex))
    plus = plus_state(3)
    pairs = {
        "chi_to_plus": (chi, plus, 3.0 / 4.0),
        "plus_to_chi": (plus, chi, 2.0 / 3.0),
        "plus_to_psi": (plus, psi, 8.0 / 15.0),
        "psi_to_plus": (psi, plus, 3.0 / 8.0),
        "psi_to_chi": (psi, chi, 1.0 / 2.0),
        "chi_to_psi": (chi, psi, 2.0 / 5.0),
    }
    values = {}
    ok = True
    for name, (src, dst, expected) in pairs.items():
        got = sgi_optimal_probability(src, dst, tol).probability
        values[name] = got
        ok = ok and abs(got - expected) <= 1e-10
    cycle = (
        values["chi_to_plus"] > values["plus_to_chi"]
        and values["plus_to_psi"] > values["psi_to_plus"]
        and values["psi_to_chi"] > values["chi_to_psi"]
    )
    return {"pass": bool(ok and cycle), "probabilities": values, "cyclic_preference": bool(cycle)}


def _cmd_demo(args, tol: Tolerance, budget: SearchBudget) -> int:
    rules = {
        "plus3": "uniform-qutrit-reachable-set",
        "activation": "two-copy-activation",
        "nonconvex": "hidden-coherence-mixture",
        "extremal": "extremal-nonunitary-schur-channel",
        "no-total-order": "cyclic-conversion-probabilities",
    }
    builders = {
        "plus3": lambda: _demo_plus3(tol),
        "activation": lambda: _demo_activation(tol),
        "nonconvex": lambda: _demo_nonconvex(tol),
        "extremal": lambda: _demo_extremal(tol, args.seed),
        "no-total-order": lambda: _demo_no_total_order(tol),
    }
    verdict = builders[args.name]()
    _print_report(f"demo {args.name}", rules[args.name], [], verdict, tol, args.seed)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Classify incoherence-compatible channels and decide basis-coherence conversions.",
    )
    parser.add_argument("--tol", type=float, default=1e-9, help="absolute and relative tolerance")
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

    p_demo = sub.add_parser("demo", help="run a built-in demonstration")
    p_demo.add_argument("name", choices=list(_DEMOS))
    p_demo.set_defaults(func=_cmd_demo)

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
