import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympf2 import catalog, verify
from sympf2.autgrp import count_automorphisms, sp_metric_order
from sympf2.catalog import (
    EXPECTED_COUNTS,
    FamilyEntry,
    build_label_model,
    cross_check,
    distinctness_audit,
    e7_pure_s1_entries,
    e8_lift_entries,
    enumerate_all,
    enumerate_type,
    export_csv,
    export_text,
    graph_of,
    model_has_full_hx,
    p_order,
    translation_subgroup,
)
from sympf2.sms import InvariantTuple, SymplecticMetricSpace, _coordinates, canonical, validate

from references import (
    automizer_value,
    count_label_automorphisms,
    edges,
    labels,
    parse_automizer,
    render_automizer,
)
from test_sms import _translate


def by_key(lie_type, family, params):
    for e in enumerate_type(lie_type):
        if e.family == family and e.params == tuple(params):
            return e
    raise KeyError((lie_type, family, params))


def test_counts_per_type():
    for lt, expected in EXPECTED_COUNTS.items():
        assert len(enumerate_type(lt)) == expected
    assert len(enumerate_all()) == 211


def test_e6_family_partition():
    sizes = {}
    for e in enumerate_type("E6"):
        sizes[e.family] = sizes.get(e.family, 0) + 1
    assert sizes == {
        "F_{r,s}": 12,
        "F'_{r,s}": 12,
        "F_{eps,delta,r,s}": 18,
        "F'_{eps,delta,r,s}": 9,
    }


def test_defect_examples():
    assert by_key("E7", "F_{r,s}", (0, 0)).defe == 3
    assert by_key("E8", "F'_{eps,delta,r,s}", (0, 0, 0, 1)).defe == -4
    e6 = by_key("E6", "F_{r,s}", (2, 3))
    assert e6.rank_a == 2 and e6.defe == 4 * (2 - 8) == -24
    assert by_key("G2", "F_{r}", (2,)).defe == -2


def test_automizer_order_examples():
    assert by_key("F4", "F_{r,s}", (2, 3)).automizer_order == p_order(2, 3) == 64512
    assert by_key("E8", "F'_{r}", (5,)).automizer_order == 9999360
    assert by_key("G2", "F_{r}", (3,)).automizer_order == 168
    g2_orders = [e.automizer_order for e in enumerate_type("G2")]
    assert g2_orders == [1, 1, 6, 168]
    # a left-nested shape, a doubly nested one, and Sp(s;t), which is not Sp(s;e,d)
    e = by_key("E7", "F''_{r,s}", (1, 1))
    assert e.automizer == (192, "(F2^3 : Hom(F2^2,F2^1)) : (GL(1,F2) x Sp(1))")
    e = by_key("E8", "F_{r,s}", (1, 3))
    assert e.automizer == (
        3612672, "Hom(F2^6,F2^1) : (GL(1,F2) x ((GL(3,F2) x GL(3,F2)) : S2))"
    )
    e = by_key("E7", "F'_{eps,delta,r,s}", (1, 0, 0, 1))
    assert e.automizer == (24, "Hom(F2^4,F2^0) : (GL(0,F2) x Sp(1;1))")
    assert sp_metric_order(1, 1, 0) == 6


def test_automizer_descriptions_evaluate_to_the_stored_orders():
    # the independent parse: joins multiply, each named factor by its formula
    for e in enumerate_all():
        tree = parse_automizer(e.automizer_desc)
        assert automizer_value(tree) == e.automizer_order, e
        assert render_automizer(tree) == e.automizer_desc, e


def test_label_model_examples():
    m = build_label_model(by_key("E8", "F'_{r}", (2,)))
    assert labels(m) == ("1", "s2", "s2", "s2")

    m = build_label_model(by_key("E8", "F''_{r,s}", (0, 1)))
    assert labels(m) == ("1", "s1")

    m = build_label_model(by_key("F4", "F_{r,s}", (1, 1)))
    assert labels(m)[1:] == ("s2", "s1", "s1")


def test_models_exist_exactly_where_stated():
    for e in enumerate_all():
        model = build_label_model(e)
        if e.lie_type in ("G2", "F4"):
            assert model is not None
        elif e.lie_type == "E6":
            assert (model is not None) == (
                e.family in ("F'_{r,s}", "F'_{eps,delta,r,s}")
            )
        elif e.lie_type == "E7":
            assert model is None
        else:
            assert (model is not None) == (e.family != "F_{eps,delta,r,s}")


# sha256 of one line per modelled entry (key, rank, table, the tag of the
# mu = 1 class: "s" for G2, whose involutions form a single class, else
# "s1"), recorded before the models moved into the builders' blocks: it pins
# every table and which entries have a model.
_MODEL_DIGEST = "7d6af75d6788fac9e279ece2f0435b1e52ca5a8b4646392bf449f9fc1dad8aab"


def test_label_model_digest():
    lines = []
    for e in enumerate_all():
        m = build_label_model(e)
        if m is not None:
            key = f"{e.lie_type}|{e.family}|{','.join(map(str, e.params))}"
            tag = "s" if e.lie_type == "G2" else "s1"
            lines.append(f"{key} {m.rank} {m.table:x} {tag}\n")
    assert len(lines) == 85
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _MODEL_DIGEST


def test_e6_block_models_are_canonical():
    # the blocks A^r B_1^eps B_2^delta C^s lay out the canonical basis
    entries = [e for e in enumerate_type("E6") if e.family == "F'_{eps,delta,r,s}"]
    assert len(entries) == 9
    for e in entries:
        assert build_label_model(e).table == canonical(InvariantTuple(*e.params)).table, e


def test_cross_check_all_models():
    for e in enumerate_all():
        report = cross_check(e)
        assert report.ok, (e, report.problems)


def test_e8_bilinearity_pattern():
    # the builders' stated predictions against the families' tags, and the
    # tables against both
    for e in enumerate_type("E8"):
        expected_fail = e.family in ("F_{r,s}", "F_{eps,delta,r,s}") or (
            e.family == "F''_{r,s}" and e.params[1] == 3
        )
        assert e.bilinear is (not expected_fail), e
        model = build_label_model(e)
        if model is None:
            assert e.family == "F_{eps,delta,r,s}"
            continue
        assert validate(model)[0] == (not expected_fail), e
    assert {e.bilinear for lt in ("G2", "F4", "E6", "E7") for e in enumerate_type(lt)} == {None}


def test_graphs():
    for e in enumerate_type("E8"):
        g = graph_of(e)
        if e.family == "F'_{r}":
            assert g.shape == "empty" if e.params[0] else g.shape in ("empty",)
        elif e.family == "F''_{r,s}":
            assert g.shape == "single_vertex"
        elif e.family == "F_{r,s}":
            s = e.params[1]
            assert g.shape == "complete_bipartite"
            assert g.part_sizes == ((1 << s) - 1, 7) if s else (0, 7)
        elif e.family == "F'_{r,s}":
            s = e.params[1]
            assert g.shape == "complete_bipartite"
            assert g.part_sizes == tuple(sorted(((1 << s) - 1, 3)))
        elif e.family == "F'_{eps,delta,r,s}":
            assert g is not None  # well-definedness asserted inside graph_of
        else:
            assert g is None


def test_graph_example_one_seven():
    g = graph_of(by_key("E8", "F_{r,s}", (0, 1)))
    assert g.shape == "complete_bipartite"
    assert g.part_sizes == (1, 7)
    assert len(edges(g)) == 7


def test_distinctness_audit():
    for lt in catalog.LIE_TYPES:
        ok, lines, _ = distinctness_audit(lt)
        assert ok, lines
    # the only E8 numeric ties pair the Res=1 family against the Res=0 one,
    # so residual ranks resolve all of them
    _, _, e8_collisions = distinctness_audit("E8")
    assert len(e8_collisions) == 4
    assert all(
        "F_{eps,delta,r,s}" in a or "F_{eps,delta,r,s}" in b
        for a, b in e8_collisions
    )
    assert len(distinctness_audit("E6")[2]) == 9
    assert len(distinctness_audit("E7")[2]) == 13


def test_distinctness_audit_reports_a_parity_tie(monkeypatch):
    # plant an F'_{eps,delta,r,s} entry with the numbers of an F'_{r,s} one
    entries = enumerate_type("E8")
    a = next(e for e in entries if e.family == "F'_{r,s}")
    i = next(i for i, e in enumerate(entries) if e.family == "F'_{eps,delta,r,s}")
    e = entries[i]
    b = FamilyEntry(
        e.lie_type, e.family, e.params, a.rank, a.rank_a, a.defe, e.automizer,
        e.defe_is_convention, e.res, e.res2, e.blocks,
    )
    planted = entries[:i] + [b] + entries[i + 1:]
    monkeypatch.setattr(catalog, "enumerate_type", lambda lie_type: planted)
    ok, lines, collisions = distinctness_audit("E8")
    assert not ok
    assert f"PARITY VIOLATION: {a.params} vs {b.params} not separated" in lines
    assert (f"{b.family}{b.params}", f"{a.family}{a.params}") in collisions


def test_lift_consistency():
    lifts = e8_lift_entries()
    pures = e7_pure_s1_entries()
    assert len(lifts) == len(pures) == 13
    # the models pick the families the paper names: F_{r,1}, F'_{r,1},
    # F''_{r,1} and F'_{1,0,r,s}, in catalog order
    named = [
        e for e in enumerate_type("E8")
        if (e.family in ("F_{r,s}", "F'_{r,s}", "F''_{r,s}") and e.params[1] == 1)
        or (e.family == "F'_{eps,delta,r,s}" and e.params[:2] == (1, 0))
    ]
    assert lifts == named
    for e in lifts:
        model = build_label_model(e)
        assert model is not None and model_has_full_hx(model)
    # a non-lift entry fails the H_x = F test
    other = by_key("E8", "F_{r,s}", (0, 2))
    assert not model_has_full_hx(build_label_model(other))


def test_lift_check_is_a_bijection_of_keys():
    lifts, pures = verify.lift_keys()
    assert lifts == pures and len(set(lifts)) == len(lifts) == 13
    assert lifts == sorted((e.rank - 1, e.rank_a) for e in e8_lift_entries())


def test_lift_check_fails_on_equal_counts_with_unequal_keys(monkeypatch):
    def lift_line():
        return next(c for c in verify.suite_catalog() if c.name.startswith("13 E8 lift"))

    assert lift_line().passed
    pures = e7_pure_s1_entries()
    # still 13 entries, but one key twice and another missing
    monkeypatch.setattr(catalog, "e7_pure_s1_entries", lambda: pures[:-1] + pures[:1])
    assert not lift_line().passed


def test_automizer_check_reports_a_planted_mismatch(monkeypatch):
    def automizer_line():
        return next(c for c in verify.suite_catalog() if c.name.startswith("automizer orders"))

    assert str(automizer_line()) == (
        "[PASS] automizer orders = mu-automorphism counts of the label models (85 models)"
    )
    count = catalog.count_mu_automorphisms
    monkeypatch.setattr(catalog, "count_mu_automorphisms", lambda model: count(model) + 1)
    line = automizer_line()
    assert not line.passed
    assert line.details.startswith("85 models, mismatches [('G2', 'F_{r}', (0,))")


def test_automizer_orders_match_model_automorphisms():
    checked = 0
    for e in enumerate_all():
        model = build_label_model(e)
        if model is None or model.rank > 4:
            continue
        assert count_label_automorphisms(model) == e.automizer_order, e
        assert catalog.count_mu_automorphisms(model) == e.automizer_order, e
        checked += 1
    assert checked >= 40


def test_automizer_orders_rank_five_to_eight():
    # backs the larger semidirect orders by search, including the
    # wreath-style swap factor of the two rank-3 blocks in E8 F_{0,3}
    checked = 0
    for e in enumerate_all():
        model = build_label_model(e)
        if model is None or model.rank < 5:
            continue
        assert catalog.count_mu_automorphisms(model) == e.automizer_order, e
        checked += 1
    assert checked == 29
    swap = by_key("E8", "F_{r,s}", (0, 3))
    assert catalog.count_mu_automorphisms(build_label_model(swap)) == 56448


def test_e6_inner_sms_automizers():
    # a label model with a bilinear polarization (the inner E6 family indexed
    # by (eps, delta, r, s) among them) is a metric space, and its Automizer
    # order is the full automorphism group order of that space: the
    # affine-solution rule and the span-check rule count it alike
    checked = 0
    for e in enumerate_all():
        model = build_label_model(e)
        if model is None or not validate(model)[0]:
            continue
        assert (
            count_automorphisms(model) == catalog.count_mu_automorphisms(model) == e.automizer_order
        ), e
        checked += 1
    assert checked == 62


def test_export_csv_shape():
    text = export_csv(enumerate_all())
    lines = text.strip().split("\n")
    assert len(lines) == 212
    assert lines[0] == (
        "lie_type,family,params,rank,rank_A,defe,res,res2,"
        "automizer_order,automizer_desc,graph_summary"
    )
    assert text == export_csv(enumerate_all())  # deterministic


def test_export_text_marks_conventions():
    text = export_text(enumerate_type("G2"))
    assert "defe=-2*" in text
    assert "counting convention" in text


def test_e6_inner_family_realized_by_matrix_model():
    # the (eps, delta, r, s) inner family lives in the quaternionic
    # projective quotient at n <= 4; its stored defect and rank must match
    # the space extracted from the actual matrix subgroup
    from sympf2 import matgrp
    from sympf2.sms import InvariantTuple, defect, invariants

    for e in enumerate_type("E6"):
        if e.family != "F'_{eps,delta,r,s}":
            continue
        eps, delta, r, s = e.params
        group = matgrp.canonical_subgroup(
            matgrp.SYMPLECTIC, InvariantTuple(eps, delta, r, s)
        )
        assert group.elements[0].n <= 4
        space = matgrp.extract_sms(group)
        assert space.rank == e.rank
        assert defect(space) == e.defe
        got = invariants(space)
        assert (got.eps, got.delta, got.r, got.s) == e.params


# --- string-label oracles for the table paths -----------------------------------
#
# The per-element loops that read the label tuple; the library answers the
# same questions with one table comparison per element.


def _label_models():
    return [m for m in map(build_label_model, enumerate_all()) if m is not None]


def _oracle_translation_subgroup(model):
    """A_F from the tags over 4^k pairs: mu(x) = 0 and m(x, y) = 0 for all y."""
    tags = labels(model)

    def mu(v):
        return tags[v] == "s1"

    size = 1 << model.rank
    return [
        x for x in range(size)
        if not mu(x) and all(mu(x) == (mu(y) != mu(x ^ y)) for y in range(size))
    ]


def _oracle_full_hx(model):
    tags = labels(model)
    size = 1 << model.rank
    return any(
        tags[x] == "s1" and all(tags[x ^ y] != tags[y] for y in range(size))
        for x in range(size)
    )


def _oracle_graph(model):
    """Vertices and edges from tag comparisons over all pairs of s1 elements."""
    tags = labels(model)
    a_f = _oracle_translation_subgroup(model)
    xs = [v for v in range(1 << model.rank) if tags[v] == "s1"]
    rep = {x: min(x ^ a for a in a_f) for x in xs}
    edges = set()
    for x, y in itertools.combinations(xs, 2):
        if rep[x] != rep[y] and tags[x ^ y] == "s2":
            edges.add(frozenset((rep[x], rep[y])))
    for x in xs:
        for y in xs:
            if rep[x] != rep[y]:
                assert (tags[x ^ y] == "s2") == (frozenset((rep[x], rep[y])) in edges)
    return tuple(sorted(set(rep.values()))), frozenset(edges)


def test_label_models_are_tables():
    checked = 0
    for e in enumerate_all():
        m = build_label_model(e)
        if m is None:
            continue
        tags = labels(m)
        assert tags[0] == "1" and len(tags) == 1 << m.rank
        assert all((tag == "s1") == (m.table >> v & 1) for v, tag in enumerate(tags))
        checked += 1
    assert checked == 85


def test_translation_subgroup_matches_label_oracle():
    for model in _label_models():
        assert translation_subgroup(model) == _oracle_translation_subgroup(model), model


def test_full_hx_matches_label_oracle():
    for model in _label_models():
        assert model_has_full_hx(model) == _oracle_full_hx(model), model
    # the table predicate alone passes G2 F_{1}: mu(x + y) = mu(y) + 1 for
    # x = 1; only E8 models reach it in the library
    g2 = build_label_model(by_key("G2", "F_{r}", (1,)))
    assert model_has_full_hx(g2)
    assert _translate(1, g2.table, 1) == g2.table ^ 0b11


def test_quotient_graph_matches_label_oracle():
    for model in _label_models():
        g = catalog._quotient_graph(model)
        assert (g.vertices, edges(g)) == _oracle_graph(model), model


def test_quotient_graph_rejects_a_table_not_constant_on_cosets(monkeypatch):
    model = build_label_model(by_key("E8", "F_{r,s}", (1, 1)))
    a_f = translation_subgroup(model)
    assert len(a_f) > 1
    # an s1 element that is not the least of its A_F-coset
    x = next(x for x in range(1 << model.rank) if model.table >> x & 1 and min(x ^ a for a in a_f) != x)
    walk = catalog._translates

    def corrupted(k, table):  # flips mu(x + y) at the last y in T_x alone
        for y, moved in walk(k, table):
            yield y, moved ^ (y == x) << ((1 << k) - 1)

    monkeypatch.setattr(catalog, "_translates", corrupted)
    with pytest.raises(AssertionError, match="graph not constant on cosets"):
        catalog._quotient_graph(model)


def _oracle_shape(vertices, edges):
    """Graph shape, with complete bipartiteness checked on every pair of the two parts."""
    if len(vertices) <= 1:
        return ("empty", "single_vertex")[len(vertices)], None
    if not edges:
        return "complete_bipartite", (0, len(vertices))
    neigh = {v: frozenset(w for w in vertices if frozenset((v, w)) in edges) for v in vertices}
    classes = sorted(set(neigh.values()), key=sorted)
    if len(classes) == 2:
        part_a = [v for v in vertices if neigh[v] == classes[0]]
        part_b = [v for v in vertices if neigh[v] == classes[1]]
        if len(edges) == len(part_a) * len(part_b) and all(
            frozenset((a, b)) in edges for a in part_a for b in part_b
        ):
            return "complete_bipartite", tuple(sorted((len(part_a), len(part_b))))
    return "other", None


def test_classify_graph_matches_pairwise_check_on_small_graphs():
    # every graph on at most 5 vertices: two neighbourhood classes always
    # mean complete bipartite, which the library uses without the pair check
    shapes = set()
    for n in range(6):
        vertices = list(range(n))
        pairs = list(itertools.combinations(vertices, 2))
        for mask in range(1 << len(pairs)):
            edges = {frozenset(p) for i, p in enumerate(pairs) if mask >> i & 1}
            neighbours = [
                sum(1 << w for w in vertices if frozenset((v, w)) in edges) for v in vertices
            ]
            got = catalog._classify_graph(neighbours)
            assert got == _oracle_shape(vertices, edges), (n, edges)
            shapes.add(got[0])
    assert shapes == {"empty", "single_vertex", "complete_bipartite", "other"}


def test_quotient_graph_edges_and_counts_come_from_neighbour_masks():
    for e in enumerate_type("E8"):
        g = graph_of(e)
        if g is None:
            continue
        assert len(g.neighbours) == len(g.vertices)
        assert sum(map(int.bit_count, g.neighbours)) == 2 * len(edges(g))
        assert all(not mask >> v & 1 for v, mask in zip(g.vertices, g.neighbours))


@st.composite
def tables_with_translations(draw, max_rank=9):
    """A random table with mu(0) = 0, made invariant under some e_i.

    Copying the half with coordinate i = 0 onto the other half makes e_i a
    translation; bilinear or not, the table has 2^j translations or more.
    """
    k = draw(st.integers(0, max_rank))
    table = draw(st.integers(0, (1 << (1 << k)) - 1)) & ~1
    for i, c in enumerate(_coordinates(k)):
        if draw(st.booleans()):
            low = table & ~c
            table = low | low << (1 << i)
    return k, table


@settings(max_examples=60, deadline=None)
@given(tables_with_translations())
def test_gray_walk_translation_subgroup_matches_translate(data):
    k, table = data
    want = [x for x in range(1 << k) if _translate(k, table, x) == table]
    assert translation_subgroup(SymplecticMetricSpace(k, table)) == want
