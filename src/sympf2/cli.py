"""Command-line front end.

Subcommands: classify, canonical, aut, catalog, verify.  Exit codes:
0 success, 1 verification failure (including invalid spaces), 2 input
error.  Output is deterministic: byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Callable, Optional

from . import autgrp, catalog, matgrp, sms

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
AUT_RANK_CAP = 600  # aut: the order formula and its decimal grow quadratically in the rank


def _classify_space(space: sms.SymplecticMetricSpace, out) -> int:
    reason, _, _, inv = sms._analyze(space, strict=False)
    print(f"valid: {'no' if inv is None else 'yes'}", file=out)
    if inv is None:
        print(f"reason: {reason}", file=out)
        if space.rank == 3:
            ones = space.table.bit_count()
            print(
                f"note: rank-3 tables are valid exactly when the number of "
                f"mu=1 elements is even (this one has {ones})",
                file=out,
            )
        return EXIT_VERIFY
    print(f"rank: {space.rank}", file=out)
    print(f"kernel dimension: {inv.r + inv.eps}", file=out)
    print(
        f"invariants: (eps, delta, r, s) = ({inv.eps}, {inv.delta}, {inv.r}, {inv.s})",
        file=out,
    )
    print(f"canonical: {inv.label()}", file=out)
    print(f"defe: {sms.defect(space).value:+d}", file=out)
    return EXIT_OK


def _load(path: str, parse: Callable, what: str):
    """parse() of the file's text, or None after saying on stderr why not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
    except RecursionError:  # json nesting deeper than the interpreter's stack
        print(f"parse error in {path}: nesting too deep", file=sys.stderr)
    except ValueError as exc:
        print(f"invalid {what} document: {exc}", file=sys.stderr)
    return None


def _cmd_classify(args, out) -> int:
    if bool(args.mu_table) == bool(args.generators):
        print("classify needs exactly one of --mu-table or --generators", file=sys.stderr)
        return EXIT_INPUT
    if args.mu_table:
        space = _load(args.mu_table, sms.parse_mu_table, "mu-table")
        return EXIT_INPUT if space is None else _classify_space(space, out)
    group = _load(args.generators, matgrp.parse_generators, "generator")
    if group is None:
        return EXIT_INPUT
    print(f"group order: {group.order()}", file=out)
    try:
        space = matgrp.extract_sms(group)
    except ValueError as exc:
        print(f"extraction failed: {exc}", file=out)
        return EXIT_VERIFY
    gens = group.generators
    pairs = [
        f"m(g{i},g{j})={'-1' if matgrp.commutator_scalar(gens[i], gens[j]) == 4 else '+1'}"
        for i, j in itertools.combinations(range(len(gens)), 2)
    ]
    if pairs:
        print("pairings: " + ", ".join(pairs), file=out)
    print(f"mu-table: {space.mu_list()}", file=out)
    return _classify_space(space, out)


def _cmd_canonical(args, out) -> int:
    try:
        space = sms.canonical(sms.InvariantTuple(args.eps, args.delta, args.r, args.s))
    except ValueError as exc:
        print(f"invalid invariant tuple: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(sms.to_mu_table_json(space), file=out)
    return EXIT_OK


def _decimal(n: int) -> str:
    """str(n) for a nonnegative int of any size; str() stops at 4300 digits."""
    chunk = 10**1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _cmd_aut(args, out) -> int:
    try:
        t = sms.InvariantTuple(args.eps, args.delta, args.r, args.s)
        if t.ambient_rank > AUT_RANK_CAP:
            raise ValueError(f"ambient rank {t.ambient_rank} outside supported range 0..{AUT_RANK_CAP}")
    except ValueError as exc:
        print(f"invalid invariant tuple: {exc}", file=sys.stderr)
        return EXIT_INPUT
    order = autgrp.sp_full_order(t.eps, t.delta, t.r, t.s)
    print(f"space: {t.label()} (ambient rank {t.ambient_rank})", file=out)
    print(f"order (formula): {_decimal(order)}", file=out)
    if t.ambient_rank > autgrp.ENUMERATION_RANK_BOUND:
        print("enumeration skipped: ambient rank exceeds the search bound", file=out)
        return EXIT_OK
    space = sms.canonical(t)
    if args.list:
        count = 0
        for mat in autgrp.enumerate_automorphisms(space):
            print(";".join(str(r) for r in mat.row_bits()), file=out)
            count += 1
    else:
        count = autgrp.count_automorphisms(space)
    print(f"order (enumerated): {count}", file=out)
    print(f"agreement: {'yes' if count == order else 'NO'}", file=out)
    return EXIT_OK if count == order else EXIT_VERIFY


def _cmd_catalog(args, out) -> int:
    if args.type == "all":
        entries = catalog.enumerate_all()
    else:
        entries = catalog.enumerate_type(args.type)
    if args.format == "csv":
        out.write(catalog.export_csv(entries))
    else:
        out.write(catalog.export_text(entries))
    return EXIT_OK


# --- verify suites -----------------------------------------------------------


def _check(name: str, passed: bool, out, details: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}"
    if details:
        line += f" ({details})"
    print(line, file=out)
    return passed


def _suite_counts(out) -> bool:
    ok = True
    for lt, expected in catalog.EXPECTED_COUNTS.items():
        actual = len(catalog.enumerate_type(lt))
        ok &= _check(
            f"class count {lt}", actual == expected, out, f"expected {expected}, got {actual}"
        )
    sizes: dict[str, int] = {}
    for e in catalog.enumerate_type("E6"):
        sizes[e.family] = sizes.get(e.family, 0) + 1
    parts = sorted(sizes.values())
    ok &= _check(
        "E6 family partition 12+12+18+9", parts == [9, 12, 12, 18], out, str(parts)
    )
    return ok


def _suite_orders(out) -> bool:
    ok = True
    for t, order, counted in autgrp.orders_sweep():
        ok &= _check(
            f"|Sp({t.r},{t.s};{t.eps},{t.delta})| enumeration",
            counted == order,
            out,
            f"formula {order}, enumerated {counted}",
        )
    report = autgrp.verify_comparisons(3)
    for name, passed in report.checks:
        ok &= _check(name, passed, out)
    return ok


def _suite_defect(out) -> bool:
    failures = []
    checked = 0
    for eps, delta in ((0, 0), (1, 0), (0, 1)):
        for r in range(0, 11):
            for s in range(0, 6):
                t = sms.InvariantTuple(eps, delta, r, s)
                if t.ambient_rank > 10:
                    continue
                checked += 1
                counted = sms.defect(sms.canonical(t)).value
                if counted != t.defect_value:
                    failures.append((t, counted))
    return _check(
        "defect closed form, all tuples of ambient rank <= 10",
        not failures,
        out,
        f"{checked} tuples" + (f", failures {failures[:3]}" if failures else ""),
    )


def _suite_exhaustive(out) -> bool:
    ok = True
    for k in range(0, 5):
        valid, classes, orbit_sizes = sms.census(k)
        expected_classes = sum(  # admissible (eps, delta, r, s) of ambient rank k
            1 for e, d in ((0, 0), (1, 0), (0, 1)) for r in range(k + 1)
            for s in range(k // 2 + 1) if r + e + 2 * d + 2 * s == k
        )
        ok &= _check(
            f"rank {k}: classes match admissible tuples",
            len(classes) == expected_classes,
            out,
            f"{len(classes)} classes",
        )
        ok &= _check(
            f"rank {k}: GL-orbit sizes sum to the valid count",
            sum(orbit_sizes) == len(valid) and len(orbit_sizes) == len(classes),
            out,
            f"orbits {orbit_sizes}",
        )
        for space in valid[:: max(1, len(valid) // 64)]:
            t = sms.isomorphism_to_canonical(space)
            if sms.transport(space, t).table != sms.canonical(sms.invariants(space)).table:
                ok = _check(f"rank {k}: canonicalization witness", False, out)
        if k == 3:
            ok &= _check(
                "rank 3: valid count is 64 (even-parity rule)", len(valid) == 64, out,
                f"got {len(valid)}",
            )
            ok &= _check(
                "rank 3: five isomorphism classes (the admissible tuples)",
                len(classes) == 5,
                out,
                f"got {len(classes)}",
            )
    return ok


def _suite_matrix(out) -> bool:
    ok = True
    failures = 0
    checked = 0
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        for eps, delta in ((0, 0), (1, 0), (0, 1)):
            for r in range(0, 7):
                for s in range(0, 7):
                    t = sms.InvariantTuple(eps, delta, r, s)
                    try:
                        group = matgrp.canonical_subgroup(target, t)
                    except ValueError:
                        continue
                    checked += 1
                    space = matgrp.extract_sms(group)
                    if space.table != sms.canonical(t).table:
                        failures += 1
    ok &= _check(
        "matrix-model round trip (extract o canonical = id)", failures == 0, out,
        f"{checked} tuples with ambient size <= 64",
    )

    def pe(perm, entries, mode):
        codes = tuple(matgrp.UNIT_CODES[e] for e in entries)
        return matgrp.ProjectiveElement(matgrp.MonomialMatrix(len(perm), perm, codes, mode))

    i22 = pe((0, 1, 2, 3), ("-1", "-1", "1", "1"), "real")
    jp2 = pe((2, 3, 0, 1), ("1", "1", "1", "1"), "real")
    j2 = pe((2, 3, 0, 1), ("-1", "-1", "1", "1"), "real")
    k1 = pe((1, 0, 3, 2), ("-1", "1", "1", "-1"), "real")
    iI = matgrp.ProjectiveElement(matgrp.MonomialMatrix.scalar(2, matgrp.UNIT_CODES["i"], "quaternion"))
    jI = matgrp.ProjectiveElement(matgrp.MonomialMatrix.scalar(2, matgrp.UNIT_CODES["j"], "quaternion"))
    neg = "-1"
    pos = matgrp.UNIT_CODES["1"]
    ok &= _check(
        "Gamma0/Gamma1 pair: m = -1 and mu signs (+1, +1)",
        matgrp.commutator_scalar(i22, jp2) == matgrp.UNIT_CODES[neg]
        and matgrp.square_scalar(i22) == pos
        and matgrp.square_scalar(jp2) == pos,
        out,
    )
    ok &= _check(
        "Gamma2 pair (J, K): m = -1 and mu signs (-1, -1)",
        matgrp.commutator_scalar(j2, k1) == matgrp.UNIT_CODES[neg]
        and matgrp.square_scalar(j2) == matgrp.UNIT_CODES[neg]
        and matgrp.square_scalar(k1) == matgrp.UNIT_CODES[neg],
        out,
    )
    ok &= _check(
        "quaternion pair (iI, jI): m = -1 and mu signs (-1, -1)",
        matgrp.commutator_scalar(iI, jI) == matgrp.UNIT_CODES[neg]
        and matgrp.square_scalar(iI) == matgrp.UNIT_CODES[neg],
        out,
    )

    part_fail = 0
    for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
        for r in range(0, 6):
            kernel_group = matgrp.canonical_subgroup(target, sms.InvariantTuple(0, 0, r, 0))
            parts = matgrp.block_partition(kernel_group)
            n = kernel_group.elements[0].n
            if len(parts) != 1 << r or any(len(p) != n >> r for p in parts):
                part_fail += 1
    ok &= _check("block partitions have 2^r equal parts", part_fail == 0, out)

    twist_fail = 0
    for n in range(1, 9):
        z = matgrp.conjugation_element(n)
        for p in range(0, n + 1):
            rep = matgrp.twisted_mu_identity_check(z, matgrp.diag_involution(n, p))
            if rep.conjugation_identity is not True or rep.mu_product_identity is not True:
                twist_fail += 1
    ok &= _check(
        "twisted conjugation identity u z u^-1 = z x for all p <= n <= 8",
        twist_fail == 0,
        out,
    )
    return ok


def _suite_catalog(out) -> bool:
    ok = True
    bad = []
    for e in catalog.enumerate_all():
        report = catalog.cross_check(e)
        if not report.ok:
            bad.append((e.lie_type, e.family, e.params, report.problems))
    ok &= _check("label-model cross checks (defe, rank_A, bilinearity)", not bad, out, str(bad[:3]))
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
    ok &= _check("E8 graph shapes (bipartite / single vertex / empty)", shapes_ok, out)
    audits_ok = all(catalog.distinctness_audit(lt).ok for lt in catalog.LIE_TYPES)
    ok &= _check("distinctness audit across all types", audits_ok, out)
    lifts = catalog.e8_lift_entries()
    pures = catalog.e7_pure_s1_entries()
    ok &= _check(
        "13 E8 lift classes match 13 pure-s1 E7 classes",
        len(lifts) == 13 == len(pures),
        out,
    )
    return ok


SUITES: dict[str, Callable] = {
    "counts": _suite_counts,
    "orders": _suite_orders,
    "defect": _suite_defect,
    "exhaustive": _suite_exhaustive,
    "matrix": _suite_matrix,
    "catalog": _suite_catalog,
}


def _cmd_verify(args, out) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"--- suite: {name} ---", file=out)
        ok = SUITES[name](out)
        print(f"--- suite {name}: {'PASS' if ok else 'FAIL'} ---", file=out)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympf2",
        description="Symplectic metric spaces over GF(2) and the exceptional-type catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a mu-table or generator file")
    p.add_argument("--mu-table", metavar="PATH")
    p.add_argument("--generators", metavar="PATH")

    for name, helptext in (
        ("canonical", "emit the canonical mu-table for an invariant tuple"),
        ("aut", "automorphism group order, formula vs enumeration"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--r", type=int, default=0)
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--eps", type=int, default=0)
        p.add_argument("--delta", type=int, default=0)
        if name == "aut":
            p.add_argument("--list", action="store_true", help="print every matrix")

    p = sub.add_parser("catalog", help="export the exceptional-type catalog")
    p.add_argument("--type", choices=("G2", "F4", "E6", "E7", "E8", "all"), default="all")
    p.add_argument("--format", choices=("csv", "text"), default="text")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")

    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "canonical": _cmd_canonical,
    "aut": _cmd_aut,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parse_args keeps no state."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return _COMMANDS[args.command](args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
