"""Repeat the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/summarize.py [--workloads W ...] [--seeds 1 2 ...] [--seconds 15] [--trace 0|1]

For every workload it runs perfbench/run.py once per seed, then prints, per
metric, the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. It also prints the share of failed questions of each run and,
from the per-question latencies every run leaves in perfbench/out/, the
highest percentile with at least ten samples beyond it. The summary is
written to perfbench/out/summary-<workload>[-trace].json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for pct in (99, 95, 90, 75):
        beyond = len(ordered) * (100 - pct) // 100
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1]
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=["schur-d32", "kraus-d16", "conversions", "cli"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, seeds {args.seeds}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"  correct in every run: {all(r['correct'] for r in runs)}; failed shares: {shares}")
        summary = {"workload": workload, "seconds": seconds, "seeds": args.seeds, "runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}{note}")
        if not args.trace:
            pooled = []
            for seed in args.seeds:
                pooled += json.loads((OUT / f"{workload}-seed{seed}.json").read_text())["latencies_ms"]
            tail = tail_percentile(pooled)
            summary["pooled_questions"] = len(pooled)
            if tail:
                summary["tail"] = {"percentile": tail[0], "ms": tail[1]}
                print(f"  p{tail[0]} latency over {len(pooled)} questions: {tail[1]:.6g} ms")
        suffix = "-trace" if args.trace else ""
        (OUT / f"summary-{workload}{suffix}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
