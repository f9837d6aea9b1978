#!/usr/bin/env python3
"""Exhaustive census of mu-tables at a given rank.

For every function mu with mu(0) = 0, check whether its polarization is
bilinear, classify the valid ones by their invariant tuple, and partition
them into basis-change orbits.  By orbit-stabilizer, each class's table
count times its automorphism-group order is |GL(k, 2)|.  The table prints
the count against both the order formula and the searched order
(count_automorphisms of the canonical model), and the script exits 1 if
any class misses either.  A class whose count times its searched order is
|GL(k, 2)| holds no table outside the canonical model's orbit, so the
invariants separate the orbits at that rank.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sympf2.autgrp import count_automorphisms, sp_full_order
from sympf2.f2core import gl_order
from sympf2.sms import canonical, census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=3, choices=range(0, 5))
    args = parser.parse_args()
    k = args.rank

    valid, classes, orbit_sizes = census(k)
    total = 1 << ((1 << k) - 1)
    print(f"rank {k}: {total} tables with mu(0)=0, {len(valid)} valid, "
          f"{total - len(valid)} rejected")
    print(f"{len(classes)} isomorphism classes; GL-orbit sizes {orbit_sizes}")
    print()
    print(f"{'class':>16} {'tables':>8} {'|Aut|':>10} {'tables*|Aut|':>12} {'searched':>10} "
          f"{'tables*searched':>15}")
    gl = gl_order(k)
    missed = []
    for t in sorted(classes, key=lambda t: (t.eps, t.delta, t.r, t.s)):
        count = classes[t]
        aut = sp_full_order(t.eps, t.delta, t.r, t.s)
        searched = count_automorphisms(canonical(t))
        print(f"{t.label():>16} {count:>8} {aut:>10} {count * aut:>12} {searched:>10} "
              f"{count * searched:>15}")
        if count * aut != gl or count * searched != gl:
            missed.append(t.label())
    print(f"{'':>16} {len(valid):>8} {'':>10} {'|GL|=' + str(gl):>12}")
    if missed:
        print(f"tables*|Aut| or tables*searched != |GL({k},2)| for {', '.join(missed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
