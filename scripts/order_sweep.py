#!/usr/bin/env python3
"""Sweep the automorphism-group order formulas against enumeration.

Prints one line per spec of `verify.orders_sweep` with the formula value,
the stabilizer-chain count and the runtime, ending with the checks of
`verify.verify_comparisons`.  Exits 0 when every line says ok.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sympf2.verify import orders_sweep, verify_comparisons


def main() -> int:
    t0 = time.monotonic()
    rows = orders_sweep()
    for t, formula, counted in rows:
        mark = "ok" if formula == counted else "MISMATCH"
        print(
            f"Sp({t.r},{t.s};{t.eps},{t.delta}) rank {t.ambient_rank}: "
            f"formula {formula}, enumerated {counted} [{mark}]"
        )
    print(f"{len(rows)} groups in {time.monotonic() - t0:.1f}s")
    checks = list(verify_comparisons())
    for check in checks:
        print(f"{'ok' if check.passed else 'MISMATCH'}: {check.name}")
    return 0 if all(f == c for _, f, c in rows) and all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
