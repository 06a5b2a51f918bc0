"""One workload in one fresh process: set up, answer whole rounds, check every answer.

run.py starts this file; it prints one JSON line on stdout.

    python worker.py --workload W --seed N --seconds S --trace 0|1 --spawned T
                     [--setup-only] [--smoke]

--spawned is time.monotonic() in the parent just before the start, so set-up
time covers interpreter start, imports, building the inputs and one untimed
warm-up question. A round is the workload's seeded question list; rounds are
repeated whole, at least once, and another round starts only if it should end
within --seconds. With --trace 1 an untraced and a traced round alternate, so
that the two see the same state of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from question import FAILED, first_of_each_family

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A question answered at least this often in a run is timed by its fastest
# answer, which leaves out the host's bursts of slow execution; one answered
# fewer times (cli, schur-d32) by the mean of its answers, because a short run
# may hold no fast answer and its fastest would then jump between the two speeds.
BEST_OF_MIN_ANSWERS = 20


def build(workload: str, seed: int):
    if workload == "schur-d32":
        import wl_schur

        return wl_schur.build(seed)
    if workload == "kraus-d16":
        import wl_kraus

        return wl_kraus.build(seed)
    if workload == "conversions":
        import wl_conversions

        return wl_conversions.build(seed)
    if workload == "cli":
        import wl_cli

        return wl_cli.build(seed, ROOT, OUT / f"cli-docs-seed{seed}")
    raise SystemExit(f"unknown workload {workload!r}")


class Ledger:
    """Timings and outcomes of the questions answered in some rounds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.families: list[str] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: list[str] = []
        self.rounds = 0

    def answer(self, q, tracer=None, request: int = 0) -> None:
        if tracer is not None:
            tracer.request = request
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = q.ask(), None
        except Exception as exc:  # a question that raises is a failed question
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.latencies.append(elapsed)
        self.families.append(q.family)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{q.family}: {type(error).__name__}: {error}")
            return
        try:
            status = q.check(result)
        except Exception as exc:  # any exception while checking is a wrong answer
            self.wrong.append(f"{q.family}: {type(exc).__name__}: {exc}")
            return
        if status == FAILED:
            self.failed += 1
            self.failures.append(f"{q.family}: known fault")

    def run(self, questions, seconds: float, tracer=None) -> "Ledger":
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for i, q in enumerate(questions):
                self.answer(q, tracer, self.rounds * len(questions) + i)
            self.rounds += 1
            now = time.monotonic()
            if (now - start) + (now - round_start) > seconds:
                return self

    def question_times(self, per_round: int) -> list[float]:
        """One time per question of the round, as BEST_OF_MIN_ANSWERS says."""
        times = []
        for i in range(per_round):
            answers = self.latencies[i::per_round]
            times.append(min(answers) if len(answers) >= BEST_OF_MIN_ANSWERS else statistics.fmean(answers))
        return times

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def _per_round(value: float, rounds: int):
    v = value / rounds
    return int(v) if float(v).is_integer() else v


def layer_metrics(tracer, traced: Ledger, plain: Ledger, cli) -> dict:
    table = tracer.layer_table()
    metrics = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
        if name.startswith(("cli.", "trace.")):
            continue
        span, field = name.rsplit(".", 1)
        row = table.get(span, {})
        value = row.get(field, 0)
        if not field.startswith("max_"):
            value = _per_round(value, traced.rounds)
        metrics[name] = {"value": value, "unit": unit}
    child = {"import_ms": [], "main_ms": []}
    if cli is not None and cli.times_path.exists():
        for line in cli.times_path.read_text().splitlines():
            for key, value in json.loads(line).items():
                child[key].append(value)
    for key in ("import_ms", "main_ms"):
        value = statistics.median(child[key]) if child[key] else 0
        metrics[f"cli.{key}"] = {"value": value, "unit": "ms"}
    process = 1e3 * statistics.median(traced.latencies) if cli is not None else 0
    metrics["cli.process_ms"] = {"value": process, "unit": "ms"}
    overhead = 100.0 * ((traced.busy / traced.rounds) / (plain.busy / plain.rounds) - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    workload = build(args.workload, args.seed)
    warm = Ledger()
    warm.answer(workload.warmup)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wrong": warm.wrong}))
        return

    questions = workload.questions
    if args.smoke:
        questions = first_of_each_family(questions)
    cli = workload.cli
    if cli is not None and cli.times_path.exists():
        cli.times_path.unlink()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        plain, ledger = Ledger(), Ledger()
        start = time.monotonic()
        while True:
            pair_start = time.monotonic()
            plain.run(questions, 0)
            tracer.install()
            if cli is not None:
                cli.traced = True
            ledger.run(questions, 0, tracer)
            tracer.uninstall()
            if cli is not None:
                cli.traced = False
            now = time.monotonic()
            if (now - start) + (now - pair_start) > args.seconds:
                break
    else:
        ledger = Ledger().run(questions, args.seconds)
    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    answered = [plain, ledger] if tracer is not None else [ledger]
    times = ledger.question_times(len(questions))
    result = {
        "setup_s": setup_s,
        "attempted": sum(len(x.latencies) for x in answered),
        "failed": sum(x.failed for x in answered),
        "wrong": warm.wrong + [w for x in answered for w in x.wrong],
        "rounds": ledger.rounds,
        "questions_per_s": len(times) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "answered_per_s": len(ledger.latencies) / ledger.busy,
        "peak_rss_mb": peak_rss_mb,
    }
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, ledger, plain, cli)
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        failures=sorted(set(ledger.failures)),
        latencies_ms=[1e3 * x for x in ledger.latencies],
        families=ledger.families,
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        nproc=os.cpu_count(),
        numpy=np.__version__,
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
