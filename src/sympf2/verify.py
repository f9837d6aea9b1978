"""The `sympf2 verify` suites.

Each suite is a generator of Check records, one per verdict, in the order
the CLI prints them; a suite passes when every one of its checks does.
"""

from __future__ import annotations

import collections
from typing import Callable, Iterable, Iterator, Optional

from . import autgrp, catalog, matgrp, sms
from .f2core import _set, _Value


class Check(_Value):
    """One verdict; str() is its `[PASS] name (details)` line."""

    __slots__ = _fields = ("name", "passed", "details")
    name: str
    passed: bool
    details: str

    def __init__(self, name: str, passed: bool, details: str = "") -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "details", details)

    def __str__(self) -> str:
        line = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return f"{line} ({self.details})" if self.details else line


def orders_sweep(
    tuples: Optional[Iterable[sms.InvariantTuple]] = None,
) -> list[tuple[sms.InvariantTuple, int, int]]:
    """(tuple, formula order, enumerated order) for each of tuples.

    By default, the order verification's own list: every metric spec with
    r = 0 and ambient rank <= 6, every r > 0 spec of ambient rank <= 6 whose
    order stays below 2^21, and the rank-7 case Sp(3;1,0).  The search
    counts by orbits along a stabilizer chain, so the 2^21 cap does not
    reflect its cost; it only keeps the `orders` suite's output fixed.
    """
    if tuples is None:
        tuples = [
            t for t in sms.admissible_tuples(6)
            if t.r == 0 or autgrp.sp_full_order(t.eps, t.delta, t.r, t.s) <= 1 << 21
        ]
        tuples.append(sms.InvariantTuple(1, 0, 0, 3))
    return [
        (t, autgrp.sp_full_order(t.eps, t.delta, t.r, t.s), autgrp.count_automorphisms(sms.canonical(t)))
        for t in tuples
    ]


def verify_comparisons() -> Iterator[Check]:
    """Order and index identities tying Sp(s;eps,delta) to Sp(s), s = 1..3.

    |Sp(s;1,0)| = |Sp(s)|, [Sp(s) : Sp(s;0,0)] = 2^(s-1)(2^s+1) and
    [Sp(s) : Sp(s-1;0,1)] = 2^(s-1)(2^s-1), both as exact integer
    divisions, and the count of nonzero vectors of V_{s;0,0} with mu = 0.
    """
    for s in range(1, 4):
        total = autgrp.sp_order(s)
        yield Check(f"|Sp({s};1,0)| equals |Sp({s})|", autgrp.sp_metric_order(s, 1, 0) == total)
        for sub, delta, sign in ((s, 0, 1), (s - 1, 1, -1)):
            order = autgrp.sp_metric_order(sub, 0, delta)
            expect = (1 << (s - 1)) * ((1 << s) + sign)
            yield Check(
                f"[Sp({s}):Sp({sub};0,{delta})] = 2^{s - 1}(2^{s}{sign:+d}) = {expect}",
                total % order == 0 and total // order == expect,
            )
        expect = ((1 << s) - 1) * ((1 << (s - 1)) + 1)
        yield Check(
            f"nonzero vanishing-set count in V_{{{s};0,0}} = {expect}",
            autgrp.mu_zero_nonzero_count(s) == expect,
        )


def suite_counts() -> Iterator[Check]:
    for lt, expected in catalog.EXPECTED_COUNTS.items():
        actual = len(catalog.enumerate_type(lt))
        yield Check(f"class count {lt}", actual == expected, f"expected {expected}, got {actual}")
    parts = sorted(collections.Counter(e.family for e in catalog.enumerate_type("E6")).values())
    yield Check("E6 family partition 12+12+18+9", parts == [9, 12, 12, 18], str(parts))


def suite_orders() -> Iterator[Check]:
    for t, order, counted in orders_sweep():
        yield Check(
            f"|Sp({t.r},{t.s};{t.eps},{t.delta})| enumeration",
            counted == order,
            f"formula {order}, enumerated {counted}",
        )
    yield from verify_comparisons()


def suite_defect() -> Iterator[Check]:
    tuples = list(sms.admissible_tuples(10))
    failures = [
        (t, counted) for t in tuples if (counted := sms.defect(sms.canonical(t))) != t.defect_value
    ]
    yield Check(
        "defect closed form, all tuples of ambient rank <= 10",
        not failures,
        f"{len(tuples)} tuples" + (f", failures {failures[:3]}" if failures else ""),
    )


def suite_exhaustive() -> Iterator[Check]:
    for k in range(0, 5):
        valid, classes, orbit_sizes = sms.census(k)
        expected_classes = sum(1 for t in sms.admissible_tuples(k) if t.ambient_rank == k)
        yield Check(
            f"rank {k}: classes match admissible tuples",
            len(classes) == expected_classes,
            f"{len(classes)} classes",
        )
        yield Check(
            f"rank {k}: GL-orbit sizes sum to the valid count",
            sum(orbit_sizes) == len(valid) and len(orbit_sizes) == len(classes),
            f"orbits {orbit_sizes}",
        )
        for space in valid[:: max(1, len(valid) // 64)]:
            t = sms.isomorphism_to_canonical(space)
            if sms.transport(space, t).table != sms.canonical(sms.invariants(space)).table:
                yield Check(f"rank {k}: canonicalization witness", False)
        if k == 3:
            yield Check(
                "rank 3: valid count is 64 (even-parity rule)", len(valid) == 64, f"got {len(valid)}"
            )
            yield Check(
                "rank 3: five isomorphism classes (the admissible tuples)",
                len(classes) == 5,
                f"got {len(classes)}",
            )


def suite_matrix() -> Iterator[Check]:
    failures = 0
    checked = 0
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        # ambient size <= 64 is at most 6 tensor slots, so ambient rank <= 14
        for t in sms.admissible_tuples(14):
            try:
                group = matgrp.canonical_subgroup(target, t)
            except ValueError:
                continue
            checked += 1
            if matgrp.extract_sms(group).table != sms.canonical(t).table:
                failures += 1
    yield Check(
        "matrix-model round trip (extract o canonical = id)", failures == 0,
        f"{checked} tuples with ambient size <= 64",
    )

    def pe(perm, entries, mode):
        codes = tuple(matgrp.UNIT_CODES[e] for e in entries)
        return matgrp.ProjectiveElement(mode, False, perm, codes)

    i22 = pe((0, 1, 2, 3), ("-1", "-1", "1", "1"), "real")
    jp2 = pe((2, 3, 0, 1), ("1", "1", "1", "1"), "real")
    j2 = pe((2, 3, 0, 1), ("-1", "-1", "1", "1"), "real")
    k1 = pe((1, 0, 3, 2), ("-1", "1", "1", "-1"), "real")
    iI = pe((0, 1), ("i", "i"), "quaternion")
    jI = pe((0, 1), ("j", "j"), "quaternion")
    neg = matgrp.UNIT_CODES["-1"]
    pos = matgrp.UNIT_CODES["1"]
    yield Check(
        "Gamma0/Gamma1 pair: m = -1 and mu signs (+1, +1)",
        matgrp.commutator_scalar(i22, jp2) == neg
        and matgrp.square_scalar(i22) == pos
        and matgrp.square_scalar(jp2) == pos,
    )
    yield Check(
        "Gamma2 pair (J, K): m = -1 and mu signs (-1, -1)",
        matgrp.commutator_scalar(j2, k1) == neg
        and matgrp.square_scalar(j2) == neg
        and matgrp.square_scalar(k1) == neg,
    )
    yield Check(
        "quaternion pair (iI, jI): m = -1 and mu signs (-1, -1)",
        matgrp.commutator_scalar(iI, jI) == neg and matgrp.square_scalar(iI) == neg,
    )

    part_fail = 0
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        for r in range(0, 6):
            kernel_group = matgrp.canonical_subgroup(target, sms.InvariantTuple(0, 0, r, 0))
            parts = matgrp.block_partition(kernel_group)
            n = kernel_group.elements[0].n
            if len(parts) != 1 << r or any(len(p) != n >> r for p in parts):
                part_fail += 1
    yield Check("block partitions have 2^r equal parts", part_fail == 0)

    twist_fail = 0
    for n in range(1, 9):
        z = matgrp.conjugation_element(n)
        for p in range(0, n + 1):
            if not all(matgrp.twisted_mu_identity_check(z, matgrp.diag_involution(n, p))):
                twist_fail += 1
    yield Check("twisted conjugation identity u z u^-1 = z x for all p <= n <= 8", twist_fail == 0)


def suite_catalog() -> Iterator[Check]:
    bad, counted, mismatched = [], 0, []
    for e in catalog.enumerate_all():
        report = catalog.cross_check(e)
        if not report.ok:
            bad.append((e.lie_type, e.family, e.params, report.problems))
        if report.has_model:
            counted += 1
            if catalog.count_mu_automorphisms(catalog.build_label_model(e)) != e.automizer_order:
                mismatched.append((e.lie_type, e.family, e.params))
    yield Check("label-model cross checks (defe, rank_A, bilinearity)", not bad, str(bad[:3]))
    yield Check(
        "automizer orders = mu-automorphism counts of the label models",
        not mismatched,
        f"{counted} models" + (f", mismatches {mismatched[:3]}" if mismatched else ""),
    )
    shapes_ok = True
    for e in catalog.enumerate_type("E8"):
        g = catalog.graph_of(e)
        if e.family == "F_{r,s}":
            s = e.params[1]
            shapes_ok &= g.shape == "complete_bipartite" and g.part_sizes == tuple(
                sorted(((1 << s) - 1, 7))
            )
        elif e.family == "F'_{r}":
            shapes_ok &= g.shape == "empty"
        elif e.family == "F''_{r,s}":
            shapes_ok &= g.shape == "single_vertex"
    yield Check("E8 graph shapes (bipartite / single vertex / empty)", shapes_ok)
    yield Check(
        "distinctness audit across all types",
        all(catalog.distinctness_audit(lt)[0] for lt in catalog.LIE_TYPES),
    )
    lifts, pures = lift_keys()
    yield Check(
        "13 E8 lift classes match 13 pure-s1 E7 classes",
        lifts == pures and len(set(lifts)) == 13,
    )


def lift_keys() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Sorted keys of the E8 lifts, (rank - 1, translation rank) of each label
    model, and of the pure-s1 E7 classes, (rank, rank_A); the classes biject
    when the two lists are equal and their keys distinct."""
    lifts = [catalog.build_label_model(e) for e in catalog.e8_lift_entries()]
    return (
        sorted((m.rank - 1, catalog.translation_rank(m)) for m in lifts),
        sorted((e.rank, e.rank_a) for e in catalog.e7_pure_s1_entries()),
    )


SUITES: dict[str, Callable[[], Iterator[Check]]] = {
    "counts": suite_counts,
    "orders": suite_orders,
    "defect": suite_defect,
    "exhaustive": suite_exhaustive,
    "matrix": suite_matrix,
    "catalog": suite_catalog,
}
