"""Seeded workload inputs and the reference arithmetic that checks them.

Nothing here imports sympf2: the closed-form orders, canonical tables,
basis changes and matrix patterns are written out again from their
definitions, so a check never trusts the code it is checking.  Every
random choice comes from one ``random.Random`` seeded by the workload name
and the seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import os
import random

# --- reference arithmetic over GF(2) -----------------------------------------


def gl_order(n: int) -> int:
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def sp_order(s: int) -> int:
    """|Sp(2s, 2)| = 2^(s^2) prod_{i<=s} (4^i - 1)."""
    out = 1 << (s * s)
    for i in range(1, s + 1):
        out *= (1 << (2 * i)) - 1
    return out


def o_order(m: int, sign: int) -> int:
    """|O^sign(2m, 2)| = 2 * 2^(m(m-1)) (2^m - sign) prod_{i<m} (4^i - 1)."""
    if m == 0:
        return 1
    out = 2 * (1 << (m * (m - 1))) * ((1 << m) - sign)
    for i in range(1, m):
        out *= (1 << (2 * i)) - 1
    return out


def metric_aut_order(eps: int, delta: int, r: int, s: int) -> int:
    """|Aut V_{r,s;eps,delta}|: the radical part times the isometry group of
    the nondegenerate part (symplectic when eps = 1, else orthogonal of
    plus type, or minus type on s + 1 pairs when delta = 1)."""
    if eps:
        top = sp_order(s)
    elif delta:
        top = o_order(s + 1, -1)
    else:
        top = o_order(s, 1)
    return (1 << (r * (2 * s + 2 * delta + eps))) * gl_order(r) * top


def plain_aut_order(s: int, t: int) -> int:
    """|Sp(s;t)|: pairing-preserving maps of s hyperbolic pairs plus a t-dim radical."""
    return (1 << (2 * s * t)) * gl_order(t) * sp_order(s)


def ambient_rank(eps: int, delta: int, r: int, s: int) -> int:
    return r + eps + 2 * delta + 2 * s


def admissible_tuples(max_rank: int) -> list[tuple[int, int, int, int]]:
    """Every (eps, delta, r, s) of ambient rank <= max_rank, in a fixed order."""
    out = []
    for eps, delta in ((0, 0), (1, 0), (0, 1)):
        for r in range(max_rank + 1):
            for s in range(max_rank // 2 + 1):
                if ambient_rank(eps, delta, r, s) <= max_rank:
                    out.append((eps, delta, r, s))
    return out


def canonical_table(eps: int, delta: int, r: int, s: int) -> tuple[int, int]:
    """(rank, mu-table) of the canonical model, basis (A^r | eps | delta-pair | s-pairs).

    mu(v) = sum_i v_i mu(e_i) + sum over pairs of v_p v_{p+1}.
    """
    k = ambient_rank(eps, delta, r, s)
    lin = 0
    pairs = []
    pos = r
    if eps:
        lin |= 1 << pos
        pos += 1
    for mu_pair in [1] * delta + [0] * s:
        if mu_pair:
            lin |= 3 << pos
        pairs.append(pos)
        pos += 2
    bits = bytearray(1 << k)
    for v in range(1 << k):
        bit = (v & lin).bit_count()
        for p in pairs:
            bit += (v >> p) & (v >> (p + 1)) & 1
        bits[v] = bit & 1
    table = bits_table(bits)
    return k, table


def table_bits(k: int, table: int) -> bytearray:
    """One byte per table entry: entry v is mu(v)."""
    raw = table.to_bytes(((1 << k) + 7) // 8, "little")
    return bytearray((raw[v >> 3] >> (v & 7)) & 1 for v in range(1 << k))


def bits_table(bits) -> int:
    raw = bytearray((len(bits) + 7) // 8)
    for v, b in enumerate(bits):
        if b:
            raw[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(raw, "little")


def transport_table(k: int, table: int, cols: list[int]) -> int:
    """The table v -> mu(T v), walking v in Gray-code order."""
    src = table_bits(k, table)
    out = bytearray(1 << k)
    out[0] = src[0]
    img = prev = 0
    for i in range(1, 1 << k):
        g = i ^ (i >> 1)
        img ^= cols[(g ^ prev).bit_length() - 1]
        prev = g
        out[g] = src[img]
    return bits_table(out)


def is_invertible(cols: list[int]) -> bool:
    basis: list[int] = []
    for v in cols:
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


def random_invertible(rng: random.Random, k: int) -> list[int]:
    while True:
        cols = [rng.getrandbits(k) for _ in range(k)]
        if is_invertible(cols):
            return cols


# --- monomial generator patterns ---------------------------------------------

# Unit names as the generator file format spells them; bit 2 of a code is
# the sign, so negating a unit is code ^ 4.
UNIT_NAMES = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")


def _diag_sign(n: int, bit: int) -> tuple[list[int], list[int]]:
    return list(range(n)), [4 if (c >> bit) & 1 else 0 for c in range(n)]


def _bitflip(n: int, bit: int) -> tuple[list[int], list[int]]:
    return [c ^ (1 << bit) for c in range(n)], [0] * n


def _j_block(n: int, bit: int) -> tuple[list[int], list[int]]:
    return [c ^ (1 << bit) for c in range(n)], [0 if (c >> bit) & 1 else 4 for c in range(n)]


def _k_block(n: int, lo_bit: int) -> tuple[list[int], list[int]]:
    lo, hi = 1 << lo_bit, 1 << (lo_bit + 1)
    entries = [(4 if c & lo else 0) if c & hi else (0 if c & lo else 4) for c in range(n)]
    return [c ^ lo for c in range(n)], entries


def _scalar(n: int, unit: int) -> tuple[list[int], list[int]]:
    return list(range(n)), [unit] * n


def tensor_slots(target: str, eps: int, delta: int, r: int, s: int) -> int:
    if target == "symplectic":
        return r + s
    return r + s + eps + 2 * delta


def slot_generators(target: str, eps: int, delta: int, r: int, s: int):
    """(field mode, n, generators) realizing the tuple by tensor-slot patterns.

    Generator order follows the canonical basis layout, so generator i is
    basis vector i of canonical_table.  Orthogonal targets spend a J block
    on eps and a J, K pair on delta; symplectic targets use the quaternion
    scalars iI and jI there.
    """
    n = 1 << tensor_slots(target, eps, delta, r, s)
    gens = [_diag_sign(n, i) for i in range(r)]
    base = r
    if target == "symplectic":
        mode = "quaternion"
        gens += [_scalar(n, 1)] * eps + [_scalar(n, 1), _scalar(n, 2)] * delta
    else:
        mode = "real"
        if eps:
            gens.append(_j_block(n, base))
            base += 1
        if delta:
            gens += [_j_block(n, base + 1), _k_block(n, base)]
            base += 2
    for p in range(s):
        gens += [_diag_sign(n, base + p), _bitflip(n, base + p)]
    return mode, n, gens


def conjugate(gen, perm_p: list[int], sign_p: list[int]):
    """P g P^-1 for the signed permutation P e_c = (-1)^sign_p[c] e_{perm_p[c]}."""
    perm, entries = gen
    n = len(perm)
    new_perm = [0] * n
    new_entries = [0] * n
    for c in range(n):
        new_perm[perm_p[c]] = perm_p[perm[c]]
        new_entries[perm_p[c]] = entries[c] ^ (4 * (sign_p[c] ^ sign_p[perm[c]]))
    return new_perm, new_entries


# --- workloads -----------------------------------------------------------------

# Full-size caps.  A pass takes about 3.3 s (orders) or 1.8 s (matrix,
# classify) on a 2-core machine, so a 40 s run measures each item in 11 to
# 23 passes and reports its median.  The tuple schedules are fixed, so a
# pass costs about the same whatever the seed; the seed chooses basis
# changes, conjugations and flipped bits.  Inputs whose cost swings with the basis (the witness of one
# rank-16 table takes 0.6-2.5 s) are left out: a single one would set the
# run's total.
FULL = {
    "order_cap": 1 << 15,
    "automizer_cap": 1 << 14,
    "rebased_cap": 1 << 14,
    "rebased_per_tuple": 32,
    "matrix_n": 64,
    "matrix_rank": 9,
    "genfile_rank": 6,
    "classify_ranks": {8: 16, 9: 14, 10: 12, 11: 10, 12: 8, 13: 6},
}

# The self-test size: every item kind, seconds in total.
SMALL = {
    "order_cap": 1 << 10,
    "automizer_cap": 1 << 10,
    "rebased_cap": 1 << 10,
    "rebased_per_tuple": 8,
    "matrix_n": 8,
    "matrix_rank": 6,
    "genfile_rank": 4,
    "classify_ranks": {8: 2, 9: 1, 10: 1},
}

REBASED_BATCH = 8
LIE_TYPES = ("G2", "F4", "E6", "E7", "E8")


def entry_key(entry) -> str:
    """A catalog entry's name in expected.json: type|family|params."""
    return f"{entry.lie_type}|{entry.family}|{','.join(str(p) for p in entry.params)}"


def _hex(table: int) -> str:
    return format(table, "x")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _orders_items(rng: random.Random, size: dict, expected: dict, workdir: str) -> list[dict]:
    items = []
    cap = size["order_cap"]
    tuples = [t for t in admissible_tuples(6) if metric_aut_order(*t) < cap]
    for t in tuples:
        items.append({"part": "a", "kind": "aut_cli", "tuple": t, "order": metric_aut_order(*t)})
    for t in tuples:
        order = metric_aut_order(*t)
        if order >= size["rebased_cap"]:
            continue
        k, table = canonical_table(*t)
        # One item counts a batch of rebased tables: a single count's cost
        # varies by +-35% with the basis, a batch's much less.
        for _ in range(size["rebased_per_tuple"] // REBASED_BATCH):
            tables = [_hex(transport_table(k, table, random_invertible(rng, k)))
                      for _ in range(REBASED_BATCH)]
            items.append({"part": "b", "kind": "aut_count", "tuple": t, "rank": k,
                          "tables": tables, "order": order})
    for model in expected["label_models"]:
        if model["rank"] <= 6 and model["automizer_order"] < size["automizer_cap"]:
            items.append({"part": "c", "kind": "mu_aut", "key": model["key"],
                          "rank": model["rank"], "order": model["automizer_order"]})
    for s in range(4):
        for t in range(7 - 2 * s):
            if plain_aut_order(s, t) < cap:
                items.append({"part": "d", "kind": "pairing_aut", "st": [s, t],
                              "order": plain_aut_order(s, t)})
    return items


def _matrix_items(rng: random.Random, size: dict, expected: dict, workdir: str) -> list[dict]:
    items = []
    max_slots = size["matrix_n"].bit_length() - 1
    for part, target in (("a", "orthogonal"), ("b", "symplectic")):
        for t in admissible_tuples(size["matrix_rank"]):
            if tensor_slots(target, *t) <= max_slots:
                k, table = canonical_table(*t)
                items.append({"part": part, "kind": "roundtrip", "target": target, "tuple": t,
                              "rank": k, "table": _hex(table)})
    for part, target in (("c", "orthogonal"), ("d", "symplectic")):
        for t in admissible_tuples(size["genfile_rank"]):
            if tensor_slots(target, *t) > max_slots or ambient_rank(*t) == 0:
                continue
            mode, n, gens = slot_generators(target, *t)
            perm_p = list(range(n))
            rng.shuffle(perm_p)
            sign_p = [rng.getrandbits(1) for _ in range(n)]
            doc = {"field_mode": mode, "n": n, "generators": []}
            for g in gens:
                perm, entries = conjugate(g, perm_p, sign_p)
                doc["generators"].append({"perm": perm, "entries": [UNIT_NAMES[e] for e in entries]})
            path = os.path.join(workdir, f"gens-{len(items)}.json")
            _write_json(path, doc)
            items.append({"part": part, "kind": "genfile", "path": path, "tuple": t,
                          "group_order": 1 << ambient_rank(*t)})
    return items


def _classify_items(rng: random.Random, size: dict, expected: dict, workdir: str) -> list[dict]:
    valid, rejected, witness = [], [], []
    for k, count in sorted(size["classify_ranks"].items()):
        # A fixed, evenly spread choice of tuples per rank keeps the cost of
        # a pass independent of the seed; the seed picks the basis changes.
        choices = [t for t in admissible_tuples(k) if ambient_rank(*t) == k]
        for j in range(count):
            t = choices[(j * len(choices)) // count + len(choices) // (2 * count)]
            _, table = canonical_table(*t)
            moved = transport_table(k, table, random_invertible(rng, k))
            bits = list(table_bits(k, moved))
            path = os.path.join(workdir, f"valid-{k}-{j}.json")
            _write_json(path, {"rank": k, "mu": bits})
            valid.append({"part": "a", "kind": "mu_table", "path": path, "tuple": t})
            bits[rng.randrange(1, 1 << k)] ^= 1
            path = os.path.join(workdir, f"flipped-{k}-{j}.json")
            _write_json(path, {"rank": k, "mu": bits})
            rejected.append({"part": "b", "kind": "rejected", "path": path, "rank": k})
            witness.append({"part": "c", "kind": "witness", "tuple": t, "rank": k,
                            "table": _hex(moved)})
    catalog = []
    for lie_type in LIE_TYPES:
        for fmt in ("csv", "text"):
            catalog.append({"part": "d", "kind": "catalog_cli", "type": lie_type, "format": fmt,
                            "sha256": expected["catalog_sha256"][f"{lie_type}.{fmt}"]})
    catalog.append({"part": "d", "kind": "cross_check", "has_model": expected["has_model"]})
    return valid + rejected + witness + catalog


WORKLOADS = {
    "orders": _orders_items,
    "matrix": _matrix_items,
    "classify": _classify_items,
}


def make_items(workload: str, seed: int, size: dict, expected: dict, workdir: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, size, expected, workdir)
