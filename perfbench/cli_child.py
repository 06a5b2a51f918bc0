"""Traced stand-in for `python -m cohkit.cli`: times its own import and main().

Usage: python cli_child.py ARGS...   (same arguments as the cohkit CLI)
Appends {"import_ms", "main_ms"} as one JSON line to $PERFBENCH_CHILD_TIMES.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import cohkit.cli  # noqa: E402

imported = time.perf_counter()
code = cohkit.cli.main(sys.argv[1:])
done = time.perf_counter()
with open(os.environ["PERFBENCH_CHILD_TIMES"], "a", encoding="utf-8") as fh:
    fh.write(json.dumps({"import_ms": 1e3 * (imported - start), "main_ms": 1e3 * (done - imported)}) + "\n")
sys.exit(code)
