from sympf2 import catalog
from sympf2.autgrp import count_automorphisms
from sympf2.catalog import (
    EXPECTED_COUNTS,
    build_label_model,
    count_label_automorphisms,
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
)
from sympf2.sms import SymplecticMetricSpace


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


def test_label_model_examples():
    m = build_label_model(by_key("E8", "F'_{r}", (2,)))
    assert m.labels == ("1", "s2", "s2", "s2")

    m = build_label_model(by_key("E8", "F''_{r,s}", (0, 1)))
    assert m.labels == ("1", "s1")

    m = build_label_model(by_key("F4", "F_{r,s}", (1, 1)))
    assert m.labels[1:] == ("s2", "s1", "s1")


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


def test_cross_check_all_models():
    for e in enumerate_all():
        report = cross_check(e)
        assert report.ok, (e, report.problems)


def test_e8_bilinearity_pattern():
    for e in enumerate_type("E8"):
        model = build_label_model(e)
        if model is None:
            assert e.family == "F_{eps,delta,r,s}"
            continue
        expected_fail = e.family == "F_{r,s}" or (
            e.family == "F''_{r,s}" and e.params[1] == 3
        )
        assert model.polarization_is_bilinear() == (not expected_fail), e


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
    assert len(g.edges) == 7


def test_distinctness_audit():
    for lt in catalog.LIE_TYPES:
        report = distinctness_audit(lt)
        assert report.ok, report.lines
    # the only E8 numeric ties pair the Res=1 family against the Res=0 one,
    # so residual ranks resolve all of them
    e8 = distinctness_audit("E8")
    assert len(e8.cross_family_collisions) == 4
    assert all(
        "F_{eps,delta,r,s}" in a or "F_{eps,delta,r,s}" in b
        for a, b in e8.cross_family_collisions
    )
    e6 = distinctness_audit("E6")
    assert len(e6.cross_family_collisions) == 9
    e7 = distinctness_audit("E7")
    assert len(e7.cross_family_collisions) == 13


def test_lift_consistency():
    lifts = e8_lift_entries()
    pures = e7_pure_s1_entries()
    assert len(lifts) == len(pures) == 13
    for e in lifts:
        model = build_label_model(e)
        assert model is not None and model_has_full_hx(model)
    # a non-lift entry fails the H_x = F test
    other = by_key("E8", "F_{r,s}", (0, 2))
    assert not model_has_full_hx(build_label_model(other))


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


# Existence searches on these two hit many dead ends and take seconds each;
# pruning candidates by the orbits of automorphisms already found (Leon
# 1991) would remove them.
_SLOW_AUTOMIZER_MODELS = {
    ("E8", "F'_{eps,delta,r,s}", (0, 1, 1, 1)),
    ("E8", "F_{r,s}", (2, 2)),
}


def test_automizer_orders_rank_five_to_eight():
    # backs the larger semidirect orders by search, including the
    # wreath-style swap factor of the two rank-3 blocks in E8 F_{0,3}
    checked = 0
    for e in enumerate_all():
        model = build_label_model(e)
        if model is None or model.rank < 5:
            continue
        if (e.lie_type, e.family, e.params) in _SLOW_AUTOMIZER_MODELS:
            continue
        assert catalog.count_mu_automorphisms(model) == e.automizer_order, e
        checked += 1
    assert checked == 27
    swap = by_key("E8", "F_{r,s}", (0, 3))
    assert catalog.count_mu_automorphisms(build_label_model(swap)) == 56448


def test_e6_inner_sms_automizers():
    # the inner E6 family indexed by (eps, delta, r, s) is a metric space;
    # its Automizer order is the full automorphism group order of that space
    for e in enumerate_type("E6"):
        if e.family != "F'_{eps,delta,r,s}":
            continue
        model = build_label_model(e)
        space = SymplecticMetricSpace(model.rank, model.mu_table())
        assert count_automorphisms(space) == e.automizer_order


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
        assert defect(space).value == e.defe
        got = invariants(space)
        assert (got.eps, got.delta, got.r, got.s) == e.params
