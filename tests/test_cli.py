import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympf2 import autgrp, catalog, cli, matgrp, sms
from sympf2.autgrp import sp_full_order
from sympf2.cli import main
from sympf2.sms import MAX_RANK, admissible_tuples
import references
from test_matgrp import MODES, inverse_commutator, reference_extract
from test_sms import _random_invertible, tuples_of_rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_hyperbolic(tmp_path, capsys):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"rank": 2, "mu": [0, 0, 0, 1]}))
    code, out, _ = run(capsys, "classify", "--mu-table", str(path))
    assert code == 0
    assert "V_{0,1;0,0}" in out
    assert "defe: +2" in out


def test_classify_invalid_parity(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 3, "mu": [0, 1, 0, 0, 0, 0, 0, 0]}))
    code, out, _ = run(capsys, "classify", "--mu-table", str(path))
    assert code == 1
    assert "valid: no" in out
    assert "even" in out  # cites the parity rule


def test_classify_parse_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", "--mu-table", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("flag", ["--mu-table", "--generators"])
def test_classify_deeply_nested_json_is_a_parse_error(tmp_path, capsys, flag):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "classify", flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error in {path}: nesting too deep\n"


def test_classify_mu_table_with_a_bom_is_a_parse_error(tmp_path, capsys):
    # json.loads refuses the BOM that open(..., encoding="utf-8") keeps
    text = "\ufeff" + json.dumps({"rank": 1, "mu": [0, 1]})
    path = tmp_path / "bom.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    code, out, err = run(capsys, "classify", "--mu-table", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"parse error in {path} at line {exc.value.lineno}, "
        f"column {exc.value.colno}: {exc.value.msg}\n"
    )


def test_classify_mu_table_with_a_huge_literal(tmp_path, capsys):
    # int()'s digit limit (Python >= 3.11) refuses the literal in json.loads;
    # without a limit the value decodes and is not a bit
    text = '{"rank": 0, "mu": [' + "1" * 5000 + "]}"
    path = tmp_path / "huge.json"
    path.write_text(text)
    try:
        json.loads(text)
        reason = "mu values must be 0 or 1"
    except ValueError as exc:
        reason = str(exc)
    code, out, err = run(capsys, "classify", "--mu-table", str(path))
    assert (code, out) == (2, "")
    assert err == f"invalid mu-table document: {reason}\n"


def test_classify_generators_gamma0(tmp_path, capsys):
    doc = {
        "field_mode": "complex",
        "n": 4,
        "generators": [
            {"perm": [0, 1, 2, 3], "entries": ["-1", "-1", "1", "1"]},
            {"perm": [2, 3, 0, 1], "entries": ["1", "1", "1", "1"]},
        ],
    }
    path = tmp_path / "gamma0.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--generators", str(path))
    assert code == 0
    assert "V_{0,1;0,0}" in out
    assert "m(g0,g1)=-1" in out


@pytest.mark.parametrize(
    "generators",
    [
        5,
        [{"perm": [1, 0], "entries": ["1", "1"], "conj": "false"}],
        [{"perm": [0.9, 1.2], "entries": ["1", "-1"]}],
    ],
    ids=["generators-not-a-list", "conj-string", "perm-floats"],
)
def test_classify_generators_rejects_malformed(tmp_path, capsys, generators):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field_mode": "complex", "n": 2, "generators": generators}))
    code, out, err = run(capsys, "classify", "--generators", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid generator document: ")


NOT_A_PERMUTATION = "not a permutation with one entry per column"
ANTILINEAR_OUTSIDE_COMPLEX = "antilinear flag only exists in complex mode"


@pytest.mark.parametrize(
    "mode, generator, reason",
    [
        ("real", {"perm": [0, 0], "entries": ["1", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [0, 2], "entries": ["1", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [-1, 0], "entries": ["1", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [0, 256], "entries": ["1", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [0, 1], "entries": ["1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [0, 1], "entries": ["1", "1", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [0, 0], "entries": ["i", "1"]}, NOT_A_PERMUTATION),
        ("real", {"perm": [False, True], "entries": ["1", "1"]},
         "generator 0: 'perm' must be a list of 2 integers"),
        ("real", {"perm": [0, 1], "entries": ["1", "i"]}, "entry 1 is not a unit of mode real"),
        ("real", {"perm": [0, 1], "entries": ["k", "i"]}, "entry 3 is not a unit of mode real"),
        ("real", {"perm": [0, 1], "entries": ["1", "i"], "conj": True},
         "entry 1 is not a unit of mode real"),
        ("complex", {"perm": [0, 1], "entries": ["k", "1"]},
         "entry 3 is not a unit of mode complex"),
        ("real", {"perm": [0, 1], "entries": ["1", "1"], "conj": True},
         ANTILINEAR_OUTSIDE_COMPLEX),
        ("quaternion", {"perm": [1, 0], "entries": ["j", "1"], "conj": True},
         ANTILINEAR_OUTSIDE_COMPLEX),
    ],
    ids=[
        "repeated-column", "column-past-n", "negative-column", "column-256",
        "entries-short", "entries-long", "perm-before-units", "bool-perm",
        "i-in-real", "first-bad-unit", "units-before-flag", "k-in-complex",
        "flag-in-real", "flag-in-quaternion",
    ],
)
def test_classify_generators_rejection_messages(tmp_path, capsys, mode, generator, reason):
    # the exact message of each check the generator constructor makes, and
    # the order of those checks: permutation and length, first bad unit,
    # then the antilinear flag
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field_mode": mode, "n": 2, "generators": [generator]}))
    assert run(capsys, "classify", "--generators", str(path)) == (
        2, "", f"invalid generator document: {reason}\n"
    )


NOT_UNIT_NAMES = "generator 0: 'entries' must be a list of unit names"
NOT_TWO_INTEGERS = "generator 0: 'perm' must be a list of 2 integers"


@pytest.mark.parametrize(
    "generator, reason",
    [
        ({"perm": [0, 1], "entries": "11"}, NOT_UNIT_NAMES),
        ({"perm": [0, 1], "entries": ["1", 1]}, NOT_UNIT_NAMES),
        ({"perm": [0, 1], "entries": [None, "1"]}, NOT_UNIT_NAMES),
        ({"perm": [0, 1], "entries": ["1", True]}, NOT_UNIT_NAMES),
        ({"perm": [0, 1], "entries": [["1"], "1"]}, NOT_UNIT_NAMES),
        ({"perm": [0, 1], "entries": ["+1", "1"]}, NOT_UNIT_NAMES),
        ({"perm": [None, 1], "entries": ["1", "1"]}, NOT_TWO_INTEGERS),
        ({"perm": [0, 1.0], "entries": ["1", "1"]}, NOT_TWO_INTEGERS),
        ({"perm": [[0], 1], "entries": ["1", "1"]}, NOT_TWO_INTEGERS),
        ({"perm": [0, 2**70], "entries": ["1", "1"]}, NOT_A_PERMUTATION),
    ],
    ids=[
        "entries-string", "entry-int", "entry-null", "entry-true", "entry-list",
        "entry-unknown-name", "perm-null", "perm-float", "perm-list", "perm-huge-int",
    ],
)
def test_classify_generators_document_messages(tmp_path, capsys, generator, reason):
    # the exact message of each type check on a generator's fields in the
    # document; an int too large for a column index passes them and is
    # refused by the constructor
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field_mode": "real", "n": 2, "generators": [generator]}))
    assert run(capsys, "classify", "--generators", str(path)) == (
        2, "", f"invalid generator document: {reason}\n"
    )


# x = I (x) [[0, i], [1, 0]] squares to iI, so it has no mu value; a =
# diag(1, 1, -1, -1) is an involution, and g = diag(1, 1, i, i) squares to a.
# {a, g} passes the doubling check (a is listed before g) and g then fails
# the square check.
X_SQUARES_TO_I = {"perm": [1, 0, 3, 2], "entries": ["1", "i", "1", "i"]}
A_INVOLUTION = {"perm": [0, 1, 2, 3], "entries": ["1", "1", "-1", "-1"]}
G_SQUARES_TO_A = {"perm": [0, 1, 2, 3], "entries": ["1", "1", "i", "i"]}
NO_MU_VALUE = "scalar is not +-1; element has no mu value"
NOT_AN_INVOLUTION = "not a projective involution: square is not scalar"


@pytest.mark.parametrize(
    "generators, order, reason",
    [
        ([X_SQUARES_TO_I], 2, NO_MU_VALUE),
        ([A_INVOLUTION, G_SQUARES_TO_A], 4, NOT_AN_INVOLUTION),
        # both faults: the first subset product, in the doubling order, that
        # has one names it
        ([X_SQUARES_TO_I, A_INVOLUTION, G_SQUARES_TO_A], 8, NO_MU_VALUE),
        ([A_INVOLUTION, G_SQUARES_TO_A, X_SQUARES_TO_I], 8, NOT_AN_INVOLUTION),
    ],
    ids=["square-i", "z4-type", "square-i-first", "z4-type-first"],
)
def test_classify_generators_extraction_failures(tmp_path, capsys, generators, order, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field_mode": "complex", "n": 4, "generators": generators}))
    assert run(capsys, "classify", "--generators", str(path)) == (
        1, f"group order: {order}\nextraction failed: {reason}\n", ""
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"rank": True, "mu": [0, 0]},
        {"rank": 1, "mu": [False, True]},
        {"rank": 1, "mu": [0, 1.0]},
        {"rank": -1, "mu": []},
        {"rank": 17, "mu": [0]},
        {"rank": 10**12, "mu": [0]},
    ],
    ids=["bool-rank", "bool-bits", "float-bit", "negative-rank", "rank-17", "huge-rank"],
)
def test_classify_mu_table_rejects_malformed(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--mu-table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid mu-table document: ")


def test_canonical_round_trips_through_classify(tmp_path, capsys):
    code, out, _ = run(capsys, "canonical", "--eps", "0", "--delta", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"rank": 2, "mu": [0, 1, 1, 1]}
    path = tmp_path / "c.json"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", "--mu-table", str(path))
    assert code == 0
    assert "V_{0,0;0,1}" in out
    assert "defe: -2" in out


@pytest.mark.parametrize("command", ["canonical", "aut"])
def test_canonical_rejects_bad_tuple(capsys, command):
    code, out, err = run(capsys, command, "--eps", "1", "--delta", "1")
    assert (code, out) == (2, "")
    assert err == "invalid invariant tuple: eps = 1 forces delta = 0\n"


@pytest.mark.parametrize("argv", [["--r", "17"], ["--r", "30", "--s", "5"], ["--r", "10000000000"]])
def test_canonical_refuses_rank_above_bound(capsys, argv):
    # refused before any table is built, with no traceback
    code, out, err = run(capsys, "canonical", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid invariant tuple: ambient rank ")
    assert "outside supported range 0..16" in err


def test_aut_command(capsys):
    code, out, _ = run(capsys, "aut", "--s", "1")
    assert code == 0
    assert "order (formula): 2" in out
    assert "order (enumerated): 2" in out
    assert "agreement: yes" in out


def test_aut_list(capsys):
    code, out, _ = run(capsys, "aut", "--eps", "1", "--list")
    assert code == 0
    assert "1" in out


@pytest.mark.parametrize("argv", [["--r", "8"], ["--s", "4"], ["--r", "6"], ["--r", "4", "--s", "2"]])
def test_aut_list_refuses_more_than_the_cap(capsys, monkeypatch, argv):
    # refused from the formula order, before a single matrix is listed
    monkeypatch.setattr(autgrp, "enumerate_automorphisms", None)
    code, out, err = run(capsys, "aut", "--list", *argv)
    assert (code, out) == (2, "")
    assert err == f"aut --list refused: the group has more than {cli.AUT_LIST_CAP} elements\n"


def test_aut_counts_above_listing_bound(capsys):
    # ranks 9-16 are counted; only aut --list stops at rank 8
    code, out, _ = run(capsys, "aut", "--r", "1", "--s", "4")
    assert code == 0
    order = sp_full_order(0, 0, 1, 4)
    assert out == (
        "space: V_{1,4;0,0} (ambient rank 9)\n"
        f"order (formula): {order}\n"
        f"order (enumerated): {order}\n"
        "agreement: yes\n"
    )


def test_aut_list_bound_is_implied_by_the_cap():
    # _cmd_aut leaves aut --list above ENUMERATION_RANK_BOUND to AUT_LIST_CAP
    assert all(
        sp_full_order(t.eps, t.delta, t.r, t.s) > cli.AUT_LIST_CAP
        for t in admissible_tuples(autgrp.COUNT_RANK_BOUND)
        if t.ambient_rank > autgrp.ENUMERATION_RANK_BOUND
    )


def test_aut_beyond_search_bound(capsys):
    code, out, _ = run(capsys, "aut", "--r", "17")
    assert code == 0
    assert "order (formula): " in out
    assert "enumeration skipped" in out


def test_aut_far_beyond_search_bound(capsys):
    # neither the 2^600-bit canonical table nor the 4300-digit str() limit
    # may turn into a traceback
    code, out, _ = run(capsys, "aut", "--r", "200", "--s", "200")
    assert code == 0
    digits = re.search(r"^order \(formula\): (\d+)$", out, re.M).group(1)
    formula = sp_full_order(0, 0, 200, 200)
    assert len(digits) > 4300
    assert int(digits[:50]) == formula // 10 ** (len(digits) - 50)
    assert digits[-1000:] == f"{formula % 10**1000:01000d}"
    assert "enumeration skipped" in out


def test_catalog_csv_counts(capsys):
    code, out, _ = run(capsys, "catalog", "--type", "F4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 13  # header + 12 rows

    code, out, _ = run(capsys, "catalog", "--type", "all", "--format", "csv")
    assert len(out.strip().split("\n")) == 212


def test_catalog_g2_orders(capsys):
    code, out, _ = run(capsys, "catalog", "--type", "G2", "--format", "csv")
    orders = [line.split(",")[8] for line in out.strip().split("\n")[1:]]
    assert orders == ["1", "1", "6", "168"]


def test_catalog_deterministic(capsys):
    _, first, _ = run(capsys, "catalog", "--type", "E8", "--format", "text")
    _, second, _ = run(capsys, "catalog", "--type", "E8", "--format", "text")
    assert first == second


def test_verify_counts_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert "[PASS] class count G2" in out
    assert "FAIL" not in out


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--unknown-flag"])
    assert exc.value.code == 2


def test_missing_input_is_an_error(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "exactly one" in err


def test_reused_parser_matches_fresh_parser(capsys):
    # main() builds its parser once; no state may carry over between calls
    calls = [
        ["catalog", "--unknown-flag"],
        ["canonical", "--s", "1"],
        ["aut", "--eps", "1", "--list"],
        ["verify", "--suite", "nope"],
        ["canonical", "--delta", "1"],
        ["classify"],
        ["catalog", "--type", "G2", "--format", "csv"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0, 2, 0]


@pytest.mark.parametrize(
    "argv",
    [["--r", "601"], ["--s", "1000"], ["--r", "1000000", "--s", "1"], ["--r", "10000000000"]],
)
def test_aut_refuses_rank_above_cap(capsys, argv):
    # refused before the order formula is multiplied out
    code, out, err = run(capsys, "aut", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid invariant tuple: ambient rank ")
    assert f"outside supported range 0..{cli.AUT_RANK_CAP}" in err


def test_aut_cap_admits_rank_600(capsys):
    assert cli.AUT_RANK_CAP == 600
    code, out, _ = run(capsys, "aut", "--r", "599", "--eps", "1")
    assert code == 0
    assert "(ambient rank 600)" in out and "enumeration skipped" in out


@pytest.mark.parametrize("n", [matgrp.GENERATOR_SIZE_CAP + 1, 4096, 4097, 10**9, 10**12])
def test_classify_generators_refuses_size_above_cap(tmp_path, capsys, n):
    # the cap is checked before the n-entry identity of the trivial group is
    # built; 4096 was the largest n admitted before column indices became bytes
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field_mode": "real", "n": n, "generators": []}))
    code, out, err = run(capsys, "classify", "--generators", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        f"invalid generator document: 'n' = {n} exceeds the generator "
        f"size cap {matgrp.GENERATOR_SIZE_CAP}\n"
    )


def test_classify_generators_refuses_long_lists(tmp_path, capsys):
    # the pairings line grows with the square of the list length; 1,000
    # copies of the 1 x 1 identity are refused before any matrix is built
    identity = {"perm": [0], "entries": ["1"]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"field_mode": "real", "n": 1, "generators": [identity] * 1000}))
    code, out, err = run(capsys, "classify", "--generators", str(path))
    assert (code, out) == (2, "")
    assert err == "invalid generator document: 1000 generators exceed the cap 64\n"
    path.write_text(json.dumps({"field_mode": "real", "n": 1, "generators": [identity] * 64}))
    code, out, _ = run(capsys, "classify", "--generators", str(path))
    assert code == 0
    assert "group order: 1\n" in out and "pairings: " in out


def test_generator_size_cap_admits_the_canonical_sizes(tmp_path, capsys):
    assert matgrp.GENERATOR_SIZE_CAP >= matgrp.AMBIENT_SIZE_CAP
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"field_mode": "real", "n": 64, "generators": []}))
    code, out, _ = run(capsys, "classify", "--generators", str(path))
    assert code == 0
    assert "group order: 1\n" in out and "V_{0,0;0,0}" in out
    # at the cap, X^255 (column c to row c ^ 255) and Z_0 (sign (-1)^c) form
    # a hyperbolic pair; their products gather at column index 255
    n = matgrp.GENERATOR_SIZE_CAP
    flip = {"perm": [c ^ (n - 1) for c in range(n)], "entries": ["1"] * n}
    sign = {"perm": list(range(n)), "entries": ["-1" if c & 1 else "1" for c in range(n)]}
    path.write_text(json.dumps({"field_mode": "real", "n": n, "generators": [flip, sign]}))
    code, out, _ = run(capsys, "classify", "--generators", str(path))
    assert code == 0
    assert "group order: 4\n" in out and "m(g0,g1)=-1" in out
    assert "invariants: (eps, delta, r, s) = (0, 0, 0, 1)\n" in out


# sha256 of the outputs at the commit before label models became mu tables;
# the catalog and its checks must not move.  The catalog suite's digest was
# re-pinned when it gained the automizer-order line, its only new text.
_GOLDEN = {
    ("catalog", "--type", "all", "--format", "csv"):
        "c76dc00b1f15b7ae82ce78d42f55711e8cfff27ddc20760385d178b27bfc6c39",
    ("catalog", "--type", "all", "--format", "text"):
        "612202fb3d8d947148604222bb5cb068e1bbe71c4fcf17c9dfff69ff2ae2c461",
    ("verify", "--suite", "catalog"):
        "30a3652fc77351039b345c486325892f4027a00d62fde9369a73e1cebf999b1a",
    ("verify", "--suite", "counts"):
        "b3ca571721d1a33188ed7b22d26b1ea7a2aeb219122aa3d868dac8552a3074d4",
    ("verify", "--suite", "orders"):
        "60e86841cb3230306b23f252f6aecf562f105f691e9ccfe937fc46f6bb1f13b9",
    ("verify", "--suite", "defect"):
        "01e2a73cc391f7b76e8a84bd8502cc7926026afd01221dec99cb2cab5d931d96",
    ("verify", "--suite", "exhaustive"):
        "a5b4df7f49ac4ac2426e16e506e8ab3762ea827c5c7029a640d2db8ff8a930cd",
    ("verify", "--suite", "matrix"):
        "0359f1422030d2ab6d86cad960d454297bd48f9ebfe6f73960ad461c3ce0c8b8",
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN), ids=" ".join)
def test_golden_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN[argv]


_GOLDEN_CLASSIFY = "48a9b359c58d8fa372ad960d421e9ee74e782458bb2c4f352afbcb6bacbf2950"


def test_golden_output_classify_mu_tables(tmp_path, capsys):
    # one seeded valid table per rank 0..MAX_RANK and its one-bit flip
    rng = random.Random(28)
    digest = hashlib.sha256()
    for k in range(MAX_RANK + 1):
        t = rng.choice(tuples_of_rank(k))
        mu = sms.transport(sms.canonical(t), _random_invertible(rng, k)).mu_list()
        flipped = list(mu)
        flipped[rng.randrange(1 << k)] ^= 1
        for name, bits in (("valid", mu), ("flipped", flipped)):
            path = tmp_path / f"{name}-{k}.json"
            path.write_text(json.dumps({"rank": k, "mu": bits}))
            code, out, err = run(capsys, "classify", "--mu-table", str(path))
            digest.update(f"{code}\n{out}\0{err}\0".encode())
    assert digest.hexdigest() == _GOLDEN_CLASSIFY


def test_verify_reports_a_planted_failure(capsys, monkeypatch):
    monkeypatch.setitem(catalog.EXPECTED_COUNTS, "G2", 5)
    code, out, err = run(capsys, "verify", "--suite", "counts")
    assert (code, err) == (1, "")
    assert "[FAIL] class count G2 (expected 5, got 4)\n" in out
    assert out.endswith("--- suite counts: FAIL ---\n")


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(-2, 2) | st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_BITS = st.lists(st.sampled_from([0, 1, 0, 1, 2, True, 0.0, "1"]), max_size=17)
_MU_DOCS = st.integers(0, 4).flatmap(
    lambda k: st.fixed_dictionaries(
        {"rank": st.just(k), "mu": st.lists(st.integers(0, 1), min_size=1 << k, max_size=1 << k)}
    )
) | st.fixed_dictionaries({}, optional={"rank": st.integers(-2, 5) | _JSON, "mu": _BITS | _JSON})
_LITERALS = (
    _JSON_SCALARS.map(json.dumps)
    | st.integers(-(10**30), 10**30).map(str)
    | st.sampled_from(["-0", "0", "1", "-1", "10", '"0"', '"1"'])
    | st.sampled_from(["0.0", "-0.0", "1.0", "1e3", "-1E-2"])
)
_JSON_TEXTS = st.recursive(
    _LITERALS,
    lambda inner: st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(st.text(max_size=3).map(json.dumps), inner), max_size=3).map(
        lambda pairs: "{" + ",".join(f"{key}: {value}" for key, value in pairs) + "}"
    ),
    max_leaves=12,
)


def _typed(value):
    """value with every leaf replaced by its type and repr, so -0.0 != 0 != False."""
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    return type(value), repr(value)


@settings(max_examples=300, deadline=None)
@given(text=_JSON_TEXTS)
def test_bit_literal_decode_equals_plain_json(text):
    # the mu-table decoder's literal table changes no value and no type
    decoded = json.loads(text, parse_int=sms._BIT_LITERALS.__getitem__)
    assert _typed(decoded) == _typed(json.loads(text))


_UNITS = st.sampled_from(["1", "-1", "i", "-i", "j", "-j", "k", "-k", "x"]) | _JSON
_GENERATOR = st.fixed_dictionaries(
    {},
    optional={
        "perm": st.permutations(range(4)) | st.lists(st.integers(-1, 4), max_size=5) | _JSON,
        "entries": st.lists(_UNITS, min_size=4, max_size=4) | _JSON,
        "conj": st.booleans() | _JSON,
    },
)
_WELL_FORMED_GENERATOR_DOCS = st.fixed_dictionaries({
    "field_mode": st.sampled_from(["real", "complex", "quaternion"]),
    "n": st.just(4),
    "generators": st.lists(
        st.fixed_dictionaries({
            "perm": st.permutations(range(4)),
            "entries": st.lists(st.sampled_from(["1", "-1", "i", "j"]), min_size=4, max_size=4),
        }, optional={"conj": st.booleans()}),
        max_size=3,
    ),
})
_GENERATOR_DOCS = _WELL_FORMED_GENERATOR_DOCS | st.fixed_dictionaries(
    {},
    optional={
        "field_mode": st.sampled_from(["real", "complex", "quaternion", "octonion"]) | _JSON,
        "n": st.sampled_from([4, 4, 1, 0, -4, True, 4.0, 10**9]) | _JSON,
        "generators": st.lists(_GENERATOR | _JSON, max_size=3) | _JSON,
    },
)


@settings(max_examples=150, deadline=None)
@given(
    flag=st.sampled_from(["--mu-table", "--generators"]),
    doc=_MU_DOCS | _GENERATOR_DOCS | _JSON,
)
def test_classify_any_json_document_exits_cleanly(flag, doc):
    # whatever the document, classify ends with exit 0, 1 or 2 and no exception
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", flag, path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Argument vectors for canonical, aut, catalog and verify, with negative,
# huge, non-integer and unknown values and unknown flags; argparse's own
# refusals end in SystemExit(2).  To bound the time, `aut --list` runs only
# at ambient rank <= 4, `aut` counts only up to ambient rank 12, and `verify`
# only runs the counts, defect and catalog suites.
_WILD_VALUES = st.integers(-3, 12).map(str) | st.sampled_from(
    ["600", "601", str(10**12), str(10**100), "-10", "1.5", "x", "", "1e3",
     "0x1", " 2 ", "1_0", "٣", "nan", "--r", "-x"]
)
_TUPLE_FLAGS = ("--r", "--s", "--eps", "--delta")
_CHOICES = {
    "--type": ["G2", "F4", "E6", "E7", "E8", "all", "E9", "csv"],
    "--format": ["csv", "text", "json", ""],
    "--suite": ["counts", "defect", "catalog", "nope", "ALL"],  # never a slow suite
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["canonical", "aut", "catalog", "verify", "nope"]))
    if command in ("canonical", "aut"):
        pairs = []
        for flag in draw(st.lists(st.sampled_from(_TUPLE_FLAGS), max_size=4)):
            bound = 1 if flag in ("--eps", "--delta") else 4
            wild = draw(st.integers(0, 3)) == 0
            value = draw(_WILD_VALUES if wild else st.integers(0, bound).map(str))
            pairs.append((flag, value))
    elif command == "catalog":
        flags = st.lists(st.sampled_from(["--type", "--format"]), max_size=3)
        pairs = [(f, draw(st.sampled_from(_CHOICES[f]))) for f in draw(flags)]
    elif command == "verify":  # at least one --suite: the default runs every suite
        suites = st.lists(st.sampled_from(_CHOICES["--suite"]), min_size=1, max_size=2)
        pairs = [("--suite", suite) for suite in draw(suites)]
    else:
        pairs = []
    argv = [command] + [token for pair in pairs for token in pair]
    if command == "aut":
        try:
            values = {flag: int(value) for flag, value in pairs}
            rank = sum(values.get(f, 0) * w for f, w in zip(_TUPLE_FLAGS, (1, 2, 1, 2)))
        except ValueError:
            rank = 0  # argparse refuses the value before anything is counted
        # a count at rank 13-16 takes up to about 2 s (--r 12 --s 2)
        assume(not 12 < rank <= autgrp.COUNT_RANK_BOUND)
        if rank <= 4 and draw(st.booleans()):
            argv.insert(draw(st.integers(1, len(argv))), "--list")
    if draw(st.integers(0, 4)) == 0:
        unknown = st.sampled_from(["--rank", "--seed", "--x", "-r", "--lists", "-h"])
        argv.insert(draw(st.integers(1, len(argv))), draw(unknown))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_any_argument_vector_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals and -h
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# --- classify --generators against the inverse-based commutator -------------


def _corpus_generator(rng, mode, n, earlier):
    """One projective monomial: mostly a tensor-slot involution (q X^x Z^z),
    else diagonal units, a shift or clock matrix of n = 4 (commutator +-i
    in complex mode), a random monomial, or a repeat or product of earlier
    generators; antilinear now and then in complex mode."""
    units = sorted(matgrp._MODE_UNITS[mode])
    kind = rng.choice(["slot", "slot", "slot", "diagonal", "clock", "random", "dependent"])
    conj = mode == "complex" and rng.random() < 0.25
    if kind == "dependent" and earlier:
        a, b = rng.choice(earlier), rng.choice(earlier)
        return matgrp.multiply(a, b) if rng.random() < 0.5 else a
    if kind == "diagonal":
        perm, entries = range(n), [rng.choice(units) for _ in range(n)]
    elif kind == "clock" and n == 4:
        if rng.random() < 0.5:
            perm, entries = (1, 2, 3, 0), (0,) * 4
        else:
            entries = [0]  # powers of i, or of -1 in real mode
            for _ in range(3):
                entries.append(matgrp.UNIT_MUL[entries[-1]][1 if mode != "real" else 4])
            perm = range(4)
    elif kind == "random":
        perm = list(range(n))
        rng.shuffle(perm)
        entries = [rng.choice(units) for _ in range(n)]
    else:
        q = rng.choice([u for u in units if (u & 3) < 2] if rng.random() < 0.8 else units)
        perm, entries = matgrp._word_matrix((q, rng.randrange(n), rng.randrange(n)), n)
    return matgrp.ProjectiveElement(mode, conj, perm, entries)


def _corpus_document(rng):
    mode = rng.choice(["real", "complex", "quaternion"])
    n = rng.choice([1, 2, 4, 4])
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(_corpus_generator(rng, mode, n, gens))
    doc = {"field_mode": mode, "n": n, "generators": []}
    for g in gens:
        entries = [matgrp.UNIT_NAMES[e] for e in g.entries]
        raw = {"perm": list(g.perm), "entries": entries}
        if g.conj or rng.random() < 0.1:
            raw["conj"] = g.conj
        doc["generators"].append(raw)
    if rng.random() < 0.05:  # an entry outside the field mode unless quaternion
        doc["generators"][0]["entries"][0] = "j"
    return doc


def _full_width_document(rng, n, mode, dependent, count=4):
    """count tensor-slot words q X^x Z^z on n coordinates, conjugated by one
    random signed permutation P (P g P^-1 on every generator), so perm and
    entries reach every column index; with dependent, the product of the
    first two is listed as well.  Antilinear now and then in complex mode.
    The CI workflow times parse_generators on these documents too."""
    units = [0, 4] if mode == "real" else [0, 1, 4, 5] if mode == "complex" else list(range(8))
    words = [(rng.choice(units), rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    if dependent:
        words.append(references.word_product(words[0], words[1]))
    perm_p = list(range(n))
    rng.shuffle(perm_p)
    sign_p = [rng.randrange(2) for _ in range(n)]
    doc = {"field_mode": mode, "n": n, "generators": []}
    for word in words:
        word_perm, word_entries = matgrp._word_matrix(word, n)
        perm, entries = [0] * n, [0] * n
        for c in range(n):  # P e_c = (-1)^sign_p[c] e_{perm_p[c]}
            perm[perm_p[c]] = perm_p[word_perm[c]]
            entries[perm_p[c]] = word_entries[c] ^ 4 * (sign_p[c] ^ sign_p[word_perm[c]])
        raw = {"perm": perm, "entries": [matgrp.UNIT_NAMES[e] for e in entries]}
        if mode == "complex" and rng.random() < 0.1:
            raw["conj"] = True
        doc["generators"].append(raw)
    return doc


def test_classify_generators_matches_inverse_commutator(tmp_path, monkeypatch):
    # 200 seeded documents on n <= 4, then 12 of conjugated tensor-slot
    # words at n = 64 and 256 (two per size and mode, one with a dependent
    # generator), each classified three times: as is, with the
    # inverse-based commutator patched in (same exit code, stdout and
    # stderr), and with the re-multiplying extraction patched in (same exit
    # code, and the same output when it is 0; the reason an extraction
    # fails may differ)
    rng = random.Random(8)
    docs = [_corpus_document(rng) for _ in range(200)]
    for n, mode, dependent in itertools.product((64, 256), MODES, (False, True)):
        docs.append(_full_width_document(rng, n, mode, dependent))
    codes = collections.Counter()
    paired = 0
    for idx, doc in enumerate(docs):
        path = tmp_path / f"gens{idx}.json"
        path.write_text(json.dumps(doc))
        runs = []
        for name, patch in (
            (None, None),
            ("commutator_scalar", inverse_commutator),
            ("extract_sms", reference_extract),
        ):
            if name:
                monkeypatch.setattr(matgrp, name, patch)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["classify", "--generators", str(path)])
            runs.append((code, out.getvalue(), err.getvalue()))
            monkeypatch.undo()
        assert runs[0] == runs[1], path.read_text()
        assert runs[0][0] == runs[2][0], path.read_text()
        if runs[0][0] == 0:
            assert runs[0] == runs[2], path.read_text()
        code, out, err = runs[0]
        assert code in (0, 1, 2) and "Traceback" not in err
        codes[code] += 1
        paired += "pairings: " in out
    assert min(codes[0], codes[1], codes[2]) > 0 and paired >= 40, (codes, paired)
