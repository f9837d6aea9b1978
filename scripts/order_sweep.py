#!/usr/bin/env python3
"""Sweep the automorphism-group order formulas against enumeration.

    python scripts/order_sweep.py [--max-rank N]

Prints one line per spec of `verify.orders_sweep` with the formula value,
the stabilizer-chain count and the runtime, ending with the checks of
`verify.verify_comparisons`.  With --max-rank N it counts every admissible
tuple of ambient rank <= N instead (N <= 16, the count bound), gives each
line its own time and the run's peak RSS at the end.  Exits 0 when every
line says ok.
"""

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sympf2.autgrp import COUNT_RANK_BOUND
from sympf2.sms import admissible_tuples
from sympf2.verify import orders_sweep, verify_comparisons


def _timed_sweep(max_rank: int) -> list:
    """orders_sweep on each admissible tuple of rank <= max_rank, its time appended."""
    rows = []
    for t in admissible_tuples(max_rank):
        t0 = time.perf_counter()
        (row,) = orders_sweep([t])
        rows.append((*row, time.perf_counter() - t0))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--max-rank", type=int, metavar="N",
        help=f"count every admissible tuple of ambient rank <= N (at most {COUNT_RANK_BOUND})",
    )
    args = parser.parse_args()
    if args.max_rank is not None and not 0 <= args.max_rank <= COUNT_RANK_BOUND:
        parser.error(f"--max-rank must lie in 0..{COUNT_RANK_BOUND}")
    t0 = time.monotonic()
    if args.max_rank is None:
        rows = [(t, formula, counted, None) for t, formula, counted in orders_sweep()]
    else:
        rows = _timed_sweep(args.max_rank)
    for t, formula, counted, seconds in rows:
        mark = "ok" if formula == counted else "MISMATCH"
        took = "" if seconds is None else f" {seconds:.3f}s"
        print(
            f"Sp({t.r},{t.s};{t.eps},{t.delta}) rank {t.ambient_rank}: "
            f"formula {formula}, enumerated {counted} [{mark}]{took}"
        )
    summary = f"{len(rows)} groups in {time.monotonic() - t0:.1f}s"
    if args.max_rank is not None:
        # ru_maxrss is in KiB on Linux
        summary += f", peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"
    print(summary)
    checks = list(verify_comparisons())
    for check in checks:
        print(f"{'ok' if check.passed else 'MISMATCH'}: {check.name}")
    return 0 if all(f == c for _, f, c, _ in rows) and all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
