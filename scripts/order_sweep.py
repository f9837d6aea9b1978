#!/usr/bin/env python3
"""Sweep the automorphism-group order formulas against enumeration.

    python scripts/order_sweep.py [--max-rank N [--rebased SEED]]

Prints one line per spec of `verify.orders_sweep` with the formula value,
the stabilizer-chain count and the runtime, ending with the checks of
`verify.verify_comparisons`.  With --max-rank N it counts every admissible
tuple of ambient rank <= N instead (N <= 16, the count bound), gives each
line its own time and the run's peak RSS at the end.  With --rebased SEED
as well, each tuple's table is canonical(t) after one basis change drawn
from random.Random(SEED), as tests/test_sms.py's _rebased draws it; each
line times the count alone, and the run names its slowest table.  Exits 0
when every line says ok.
"""

import argparse
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sympf2.autgrp import COUNT_RANK_BOUND, count_automorphisms, sp_full_order
from sympf2.f2core import F2Matrix
from sympf2.sms import admissible_tuples, canonical, transport
from sympf2.verify import orders_sweep, verify_comparisons


def _rebased(t, seed: int):
    """canonical(t) transported along the first invertible matrix whose rows
    random.Random(seed).getrandbits draws."""
    space = canonical(t)
    k = space.rank
    rng = random.Random(seed)
    while True:
        m = F2Matrix.from_row_bits([rng.getrandbits(k) for _ in range(k)], k)
        if m.is_invertible():
            return transport(space, m)


def _timed_sweep(max_rank: int) -> list:
    """orders_sweep on each admissible tuple of rank <= max_rank, its time appended."""
    rows = []
    for t in admissible_tuples(max_rank):
        t0 = time.perf_counter()
        (row,) = orders_sweep([t])
        rows.append((*row, time.perf_counter() - t0))
    return rows


def _rebased_sweep(max_rank: int, seed: int) -> list:
    """(tuple, formula, count, seconds) for one rebased table of each tuple of rank <= max_rank."""
    rows = []
    for t in admissible_tuples(max_rank):
        space = _rebased(t, seed)
        t0 = time.perf_counter()
        counted = count_automorphisms(space)
        rows.append((t, sp_full_order(t.eps, t.delta, t.r, t.s), counted, time.perf_counter() - t0))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--max-rank", type=int, metavar="N",
        help=f"count every admissible tuple of ambient rank <= N (at most {COUNT_RANK_BOUND})",
    )
    parser.add_argument(
        "--rebased", type=int, metavar="SEED",
        help="with --max-rank, count one seeded basis change of each canonical table",
    )
    args = parser.parse_args()
    if args.max_rank is not None and not 0 <= args.max_rank <= COUNT_RANK_BOUND:
        parser.error(f"--max-rank must lie in 0..{COUNT_RANK_BOUND}")
    if args.rebased is not None and args.max_rank is None:
        parser.error("--rebased needs --max-rank")
    t0 = time.monotonic()
    if args.max_rank is None:
        rows = [(t, formula, counted, None) for t, formula, counted in orders_sweep()]
    elif args.rebased is None:
        rows = _timed_sweep(args.max_rank)
    else:
        rows = _rebased_sweep(args.max_rank, args.rebased)
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
    if args.rebased is not None:
        t, _, _, seconds = max(rows, key=lambda row: row[3])
        print(f"slowest table: {t.label()}, seed {args.rebased}, {seconds:.3f}s")
    checks = list(verify_comparisons())
    for check in checks:
        print(f"{'ok' if check.passed else 'MISMATCH'}: {check.name}")
    return 0 if all(f == c for _, f, c, _ in rows) and all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
