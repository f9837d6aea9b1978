"""A fixed calibration loop, timed next to every measured call.

The benchmark runs on a few cores of a shared host whose speed changes in
phases of seconds to minutes, by up to 50%, for every kind of code at once:
the same call reads 2.8 ms in one phase and 4.3 ms in the next.  The ratio
of a call's time to this loop's time, taken moments apart, stays within a
few percent across those phases.  So every time the benchmark reports is
measured as that ratio and given in seconds at the loop's nominal speed:

    reported = measured / (calibration loop time next to it) * REF_S

A change to sympf2 moves the ratio exactly as it moves the measured time;
the host's phase cancels.  The loop is pure Python over small integers and
a bytes table, like the GF(2) code it calibrates, allocates nothing, and
imports nothing from sympf2, so no change to sympf2 can move it.
"""

from __future__ import annotations

import time

# The loop's median time on the machine the benchmark was tuned on (a
# 2-vCPU Xeon VM at 2.1 GHz, CPython 3.11), so that reported times read
# close to what that machine measures.
REF_S = 2.4e-4

_RANK = 10
_COLS = tuple((0x1D3 * (i + 1)) & ((1 << _RANK) - 1) | (1 << i) for i in range(_RANK))
_TABLE = bytes(((v * 0x9E37) >> 7) & 1 for v in range(1 << _RANK))


def kernel() -> int:
    """Walk the rank-10 table in Gray-code order under a fixed basis change."""
    cols, table = _COLS, _TABLE
    total = img = prev = 0
    for i in range(1, 1 << _RANK):
        g = i ^ (i >> 1)
        img ^= cols[(g ^ prev).bit_length() - 1]
        prev = g
        total += table[img]
    return total


def sample() -> float:
    """One timed run of the loop, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
