"""Per-layer timings against the dimension d, beside the start-up floor of a process.

    python3 perfbench/scaling.py [--repeat 3]

Times each layer's public call on a random full-rank unit-diagonal Schur
channel at d = 4, 8, 16, 32 (best of --repeat), sfi_probability at
d = 4..8, and three fresh processes: `python -c "import numpy"`,
`python -c "import cohkit"` and one `python -m cohkit.cli prob sgi` call.
BLAS runs on one thread, as in run.py. Prints a table and writes
perfbench/out/scaling.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cohkit as ck  # noqa: E402


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def schur_channel(rng, d: int):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    a = g @ np.conj(g).T
    return a, ck.channels.schur_map(a)


def process_ms(argv: list[str], repeat: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return best_ms(lambda: subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True), repeat)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    rows = {}
    for d in (4, 8, 16, 32):
        a, m = schur_channel(rng, d)
        h = ck.classify.Hamiltonian(tuple(np.sort(rng.uniform(0.0, 10.0, size=d))))
        rows[f"d={d}"] = {
            "kraus_ops": len(m.kraus),
            "linalg.is_psd": best_ms(lambda: ck.linalg.is_psd(a), args.repeat),
            "channels.schur_map": best_ms(lambda: ck.channels.schur_map(a), args.repeat),
            "channels.choi_matrix": best_ms(lambda: ck.channels.choi_matrix(m), args.repeat),
            "channels.extract_schur_matrix": best_ms(lambda: ck.channels.extract_schur_matrix(m), args.repeat),
            "channels.minimal_representation": best_ms(lambda: ck.channels.minimal_representation(m), args.repeat),
            "classify.classify_channel": best_ms(lambda: ck.classify.classify_channel(m), args.repeat),
            "classify.classify_channel+tio": best_ms(lambda: ck.classify.classify_channel(m, h), args.repeat),
            "classify.gi_extremality": best_ms(lambda: ck.classify.gi_extremality(m), args.repeat),
        }
    sfi = {}
    for d in range(4, 9):
        p = rng.uniform(0.2, 1.0, size=d)
        q = rng.uniform(0.2, 1.0, size=d)
        psi = ck.states.PureState(np.sqrt(p / p.sum()).astype(complex))
        phi = ck.states.PureState(np.sqrt(q / q.sum()).astype(complex))
        sfi[f"d={d}"] = best_ms(lambda: ck.convert.sfi_probability(psi, phi), args.repeat)
    docs = HERE / "out" / "scaling-docs"
    docs.mkdir(parents=True, exist_ok=True)
    for name, v in (("chi", [np.sqrt(0.5), 0.5, 0.5]), ("plus", [3 ** -0.5] * 3)):
        (docs / f"{name}.json").write_text(json.dumps({"kind": "state_vector", "data": [[x, 0.0] for x in v]}))
    py = sys.executable
    processes = {
        "python -c 'import numpy'": process_ms([py, "-c", "import numpy"], args.repeat),
        "python -c 'import cohkit'": process_ms([py, "-c", "import cohkit"], args.repeat),
        "python -m cohkit.cli prob sgi": process_ms(
            [py, "-m", "cohkit.cli", "prob", "sgi", str(docs / "chi.json"), str(docs / "plus.json")], args.repeat
        ),
    }
    result = {
        "repeat": args.repeat,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "layers_ms": rows,
        "sfi_probability_ms": sfi,
        "process_ms": processes,
    }
    (HERE / "out" / "scaling.json").write_text(json.dumps(result, indent=1))
    names = [k for k in rows["d=4"] if k != "kraus_ops"]
    print(f"best of {args.repeat}, ms; full-rank unit-diagonal Schur channel with d Kraus operators")
    print(f"{'layer':36s}" + "".join(f"{d:>12s}" for d in rows))
    for name in names:
        print(f"{name:36s}" + "".join(f"{rows[d][name]:12.3f}" for d in rows))
    print("sfi_probability " + "  ".join(f"{d}: {v:.3f}" for d, v in sfi.items()))
    for name, v in processes.items():
        print(f"{name:36s}{v:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
