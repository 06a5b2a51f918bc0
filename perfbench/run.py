"""cohkit benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads: schur-d32, kraus-d16, conversions, cli (see README.md). Run from
the repository root or anywhere else; cohkit is taken from src/ next to this
directory, not from an installed copy. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. --smoke runs every workload on one question of each family, traced,
and exits 1 if any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("schur-d32", "kraus-d16", "conversions", "cli")
BLAS_THREADS = "1"
# set-up is measured in the measured process and in set-up-only processes started
# before and after it: on each side at least one and at most SETUP_PROBES_MAX,
# more while SETUP_BUDGET_S has not passed; the median of all is reported
SETUP_PROBES_MAX = 4
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], deadline: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--spawned", repr(spawned)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - spawned, 1.0),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(common: list[str], deadline: float) -> list[dict]:
    probes: list[dict] = []
    start = time.monotonic()
    while not probes or (len(probes) < SETUP_PROBES_MAX and time.monotonic() - start < SETUP_BUDGET_S):
        probes.append(_worker(common + ["--setup-only"], deadline))
    return probes


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = [] if trace else _setup_probes(common, deadline)
    run = _worker(common, deadline)
    if not trace:
        setups += _setup_probes(common, deadline)
    wrong = [w for r in setups + [run] for w in r["wrong"]]
    for line in wrong[:10]:
        sys.stderr.write(f"wrong answer: {line}\n")
    if trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median([r["setup_s"] for r in setups + [run]]), "unit": "s"},
            "questions_per_s": {"value": run["questions_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": run["latency_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not wrong, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def smoke() -> int:
    status = 0
    for workload in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        start = time.monotonic()
        run = _worker(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke"], deadline)
        ok = not run["wrong"]
        status |= 0 if ok else 1
        print(
            f"{workload:12s} {'ok' if ok else 'WRONG'}  attempted={run['attempted']} failed={run['failed']}"
            f"  {time.monotonic() - start:.1f} s"
        )
        for line in run["wrong"]:
            print(f"  wrong answer: {line}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "cohkit" / "__init__.py").is_file():
        sys.stderr.write(f"cohkit sources not found under {ROOT / 'src'}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
