"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Prints one PASS/FAIL line per check and
exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("orders", "matrix", "classify")
EXACT = ("autgrp.order_sum", "matgrp.elements", "matgrp.multiply.calls", "sms.table_bits")


def run(workload: str, seed: int, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail and not ok else ""))

    for workload in WORKLOADS:
        counts = []
        for seed in (1, 2):
            for trace in (0, 1):
                rc, res, out = run(workload, seed, trace)
                label = f"{workload} seed {seed} trace {trace}"
                check(f"{label}: exit 0, correct, failed_frac 0",
                      rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
                      out[-800:])
                if res is None:
                    continue
                check(f"{label}: reports exactly the BENCHMARK.json metrics",
                      list(res["metrics"]) == names[trace], str(list(res["metrics"])))
                if trace:
                    counts.append({k: res["metrics"][k]["value"] for k in EXACT})
                else:
                    zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
                    check(f"{label}: no end-to-end metric is 0", not zero, str(zero))
            if trace and seed == 1:
                _, again, _ = run(workload, seed, 1)
                check(f"{workload} seed 1: exact counts repeat across runs",
                      again is not None
                      and {k: again["metrics"][k]["value"] for k in EXACT} == counts[0])
        rc, res, out = run(workload, 1, 0, "--plant-failure")
        check(f"{workload}: planted wrong expected value is reported as a failure",
              rc == 0 and res is not None and not res["correct"] and res["failed"] >= 1
              and "FAILED item 0" in out, out[-800:])

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "orders", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        check("without src/: non-zero exit and no result line",
              proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout[-300:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
