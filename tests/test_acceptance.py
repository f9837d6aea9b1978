"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its runtime so the suite doubles as
a human-readable report (run with `pytest tests/test_acceptance.py -v -s`,
or through `sympf2 verify --suite all`).  Every tolerance is exact.
"""

import time

from sympf2 import autgrp, catalog, matgrp, sms, verify
from sympf2.sms import InvariantTuple


class _Criterion:
    def __init__(self, num, desc, bound_seconds):
        self.num = num
        self.desc = desc
        self.bound = bound_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        in_time = elapsed < self.bound
        status = "PASS" if exc_type is None and in_time else "FAIL"
        print(f"[{status}] criterion {self.num}: {self.desc} [{elapsed:.2f}s / {self.bound}s]")
        if exc_type is None:
            assert in_time, f"criterion {self.num} exceeded {self.bound}s"
        return False


def test_criterion_1_class_counts():
    with _Criterion(1, "catalog counts G2=4 F4=12 E6=51 E7=78 E8=66", 1.0):
        for lt, expected in catalog.EXPECTED_COUNTS.items():
            assert len(catalog.enumerate_type(lt)) == expected
        assert len(catalog.enumerate_all()) == 211


def test_criterion_2_e6_partition():
    with _Criterion(2, "E6 partition 12+12+18+9 = 51", 1.0):
        sizes = {}
        for e in catalog.enumerate_type("E6"):
            sizes[e.family] = sizes.get(e.family, 0) + 1
        assert sizes == {
            "F_{r,s}": 12,
            "F'_{r,s}": 12,
            "F_{eps,delta,r,s}": 18,
            "F'_{eps,delta,r,s}": 9,
        }
        assert sum(sizes.values()) == 51


def test_criterion_3_order_formulas_vs_enumeration():
    with _Criterion(3, "order formulas vs backtracking enumeration", 60.0):
        results = verify.orders_sweep()
        for t, formula, counted in results:
            assert counted == formula, (t, formula, counted)
        verified = {
            (t.eps, t.delta, t.r, t.s): formula for t, formula, _ in results
        }
        assert verified[(1, 0, 0, 1)] == 6  # |Sp(1)|
        assert verified[(1, 0, 0, 2)] == 720  # |Sp(2)|
        assert verified[(1, 0, 0, 3)] == 1451520  # |Sp(3)| at ambient rank 7
        assert verified[(0, 0, 0, 3)] == 40320  # |Sp(3;0,0)|


def test_criterion_4_index_identities():
    with _Criterion(4, "index identities over Sp(s;0,0) and Sp(s-1;0,1)", 1.0):
        for s in (1, 2, 3):
            total = autgrp.sp_order(s)
            plus = autgrp.sp_metric_order(s, 0, 0)
            minus = autgrp.sp_metric_order(s - 1, 0, 1)
            assert total % plus == 0
            assert total // plus == (1 << (s - 1)) * ((1 << s) + 1)
            assert total % minus == 0
            assert total // minus == (1 << (s - 1)) * ((1 << s) - 1)
        assert all(check.passed for check in verify.verify_comparisons())


def test_criterion_5_defect_closed_form():
    with _Criterion(5, "counted defect equals (1-eps)(-1)^delta 2^(r+s+delta)", 10.0):
        checked = 0
        for eps, delta in ((0, 0), (1, 0), (0, 1)):
            for r in range(11):
                for s in range(6):
                    t = InvariantTuple(eps, delta, r, s)
                    if t.ambient_rank > 10:
                        continue
                    space = sms.canonical(t)
                    assert sms.defect(space) == t.defect_value, t
                    checked += 1
        assert checked >= 75


def test_criterion_6_exhaustive_census():
    with _Criterion(6, "exhaustive mu census at rank <= 4", 60.0):
        for k in range(5):
            valid, classes, orbit_sizes = sms.census(k)
            total_tables = 1 << ((1 << k) - 1)
            rejected = total_tables - len(valid)
            assert rejected + len(valid) == total_tables
            admissible = {
                InvariantTuple(e, d, r, s)
                for e in (0, 1)
                for d in (0, 1)
                for r in range(k + 1)
                for s in range(k // 2 + 1)
                if e * d == 0 and r + e + 2 * d + 2 * s == k
            }
            # every valid table classifies to exactly one admissible tuple
            assert set(classes) == admissible
            # GL-orbit partition matches the classification
            assert len(orbit_sizes) == len(classes)
            assert sum(orbit_sizes) == len(valid)
            if k == 3:
                assert len(valid) == 64  # even-parity rule
                assert len(classes) == 5
                assert sorted(classes.values()) == [1, 7, 7, 21, 28]
            # each table transports to its canonical model bit for bit
            for space in valid:
                t = sms.isomorphism_to_canonical(space)
                target = sms.canonical(sms.invariants(space))
                assert sms.transport(space, t).table == target.table


def test_criterion_7_matrix_model_round_trip():
    with _Criterion(7, "extract_sms after canonical_subgroup; Gamma pairs; partitions", 10.0):
        checked = 0
        for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
            for eps, delta in ((0, 0), (1, 0), (0, 1)):
                for r in range(7):
                    for s in range(7):
                        t = InvariantTuple(eps, delta, r, s)
                        try:
                            group = matgrp.canonical_subgroup(target, t)
                        except ValueError:
                            continue
                        assert matgrp.extract_sms(group).table == sms.canonical(t).table
                        checked += 1
        assert checked >= 80

        def pe(perm, entries, mode):
            codes = tuple(matgrp.UNIT_CODES[e] for e in entries)
            return matgrp.ProjectiveElement(mode, False, perm, codes)

        neg = matgrp.UNIT_CODES["-1"]
        pos = matgrp.UNIT_CODES["1"]
        i22 = pe((0, 1, 2, 3), ("-1", "-1", "1", "1"), "real")
        jp2 = pe((2, 3, 0, 1), ("1", "1", "1", "1"), "real")
        j2 = pe((2, 3, 0, 1), ("-1", "-1", "1", "1"), "real")
        k1 = pe((1, 0, 3, 2), ("-1", "1", "1", "-1"), "real")
        iI = pe((0, 1), ("i", "i"), "quaternion")
        jI = pe((0, 1), ("j", "j"), "quaternion")
        # Gamma0/Gamma1: mu = (+1, +1), m = -1
        assert matgrp.commutator_scalar(i22, jp2) == neg
        assert matgrp.square_scalar(i22) == pos and matgrp.square_scalar(jp2) == pos
        # Gamma2: mu = (-1, -1), m = -1
        assert matgrp.commutator_scalar(j2, k1) == neg
        assert matgrp.square_scalar(j2) == neg and matgrp.square_scalar(k1) == neg
        # quaternion scalars: mu = (-1, -1), m = -1
        assert matgrp.commutator_scalar(iI, jI) == neg
        assert matgrp.square_scalar(iI) == neg and matgrp.square_scalar(jI) == neg

        for target in (matgrp.ORTHOGONAL, matgrp.SYMPLECTIC):
            for r in range(6):
                group = matgrp.canonical_subgroup(target, InvariantTuple(0, 0, r, 0))
                parts = matgrp.block_partition(group)
                n = group.elements[0].n
                assert len(parts) == 1 << r
                assert all(len(p) == n >> r for p in parts)


def test_criterion_8_twisted_identity():
    with _Criterion(8, "u z u^-1 = z x for u = diag(i on P, 1), all p <= n <= 8", 1.0):
        for n in range(1, 9):
            z = matgrp.conjugation_element(n)
            for p in range(n + 1):
                x = matgrp.diag_involution(n, p)
                assert matgrp.twisted_mu_identity_check(z, x) == (True, True), (n, p)


def test_criterion_9_e8_model_cross_checks():
    with _Criterion(9, "E8 label models: defe, rank_A, bilinearity, graphs", 10.0):
        for e in catalog.enumerate_type("E8"):
            model = catalog.build_label_model(e)
            if model is None:
                assert e.family == "F_{eps,delta,r,s}"
                continue
            report = catalog.cross_check(e)
            assert report.ok, (e, report.problems)
            expected_fail = e.family == "F_{r,s}" or (
                e.family == "F''_{r,s}" and e.params[1] == 3
            )
            assert sms.validate(model)[0] == (not expected_fail), e
            g = catalog.graph_of(e)
            if e.family == "F_{r,s}":
                s = e.params[1]
                assert g.shape == "complete_bipartite"
                assert g.part_sizes == tuple(sorted(((1 << s) - 1, 7)))
            elif e.family == "F'_{r,s}":
                s = e.params[1]
                assert g.shape == "complete_bipartite"
                assert g.part_sizes == tuple(sorted(((1 << s) - 1, 3)))
            elif e.family == "F''_{r,s}":
                assert g.shape == "single_vertex"
            elif e.family == "F'_{r}":
                assert g.shape == "empty"
        # models exist for the other types too, and recount cleanly
        for e in catalog.enumerate_all():
            report = catalog.cross_check(e)
            assert report.ok, (e, report.problems)


def test_criterion_10_distinctness_audit():
    with _Criterion(10, "within-family separation and cross-family resolution", 5.0):
        for lt in catalog.LIE_TYPES:
            ok, lines, _ = catalog.distinctness_audit(lt)
            assert ok, lines
        _, _, e8_collisions = catalog.distinctness_audit("E8")
        # the parity argument: the candidate family pair has no surviving tie
        assert not any(
            "F'_{r,s}" in a and "F'_{eps,delta" in b or "F'_{eps,delta" in a and "F'_{r,s}" in b
            for a, b in e8_collisions
        )
        assert len(catalog.e8_lift_entries()) == 13
        assert len(catalog.e7_pure_s1_entries()) == 13
