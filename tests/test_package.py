"""Package-wide properties: the documented public surface, no verdict that
`python -O` could strip, a light import, and the record types' value
semantics."""

import ast
import copy
import inspect
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import sympf2
from sympf2 import catalog, f2core, matgrp, sms, verify

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_public_api_lists_all_exports():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in re.findall(r"^- from `(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S):
        module, names = item
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    assert sorted(listed) == sorted(sympf2.__all__)
    for name, module in listed.items():
        assert getattr(sympf2, name).__module__ == f"sympf2.{module}", name


def test_library_code_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sympf2").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI query is a fresh process that pays this import; a site hook
    # may preload modules, so only the modules the import adds count
    code = (
        "import sys; before = set(sys.modules); import sympf2, sympf2.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert "sympf2.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_fields_the_benchmark_reads():
    # perfbench/worker.py reads these fields, not only the tests: its witness
    # check takes [r.bits for r in t.row_data] of isomorphism_to_canonical,
    # its catalog item reads .entry, .has_model and .ok of every cross_check
    # report, and the traced run counts len(elements) of each closure.
    for t in sms.admissible_tuples(6):
        k = t.ambient_rank
        shear = f2core.F2Matrix.from_row_bits([(3 << i) & ((1 << k) - 1) for i in range(k)], k)
        for space in (sms.canonical(t), sms.transport(sms.canonical(t), shear)):
            witness = sms.isomorphism_to_canonical(space)
            assert (witness.rows, witness.cols) == (k, k), t
            assert [r.bits for r in witness.row_data] == witness.row_bits(), t
            assert sms.transport(space, witness) == sms.canonical(t), t
    for e in catalog.enumerate_all():
        report = catalog.cross_check(e)
        assert report.entry == e and report.ok, report.problems
        assert report.has_model == (e.blocks is not None), e
    swap = matgrp.ProjectiveElement("complex", False, (1, 0, 3, 2), bytes(4))
    diag = [_pe((0, 4, 0, 4)), _pe((0, 0, 4, 4)), _pe((0, 4, 4, 0)), _pe((1, 1, 1, 1))]
    for gens in ([diag[0]], diag, diag + [swap]):
        group = _group(*gens)
        assert len(group.elements) == group.order() == len(set(group.elements)), gens
    trivial = matgrp.GeneratedSubgroup.trivial(4, "complex")
    assert trivial.elements == (matgrp.identity(4, "complex"),) and trivial.order() == 1


def _entry(**changes):
    fields = dict(
        lie_type="E8", family="F_{r}", params=(1,), rank=1, rank_a=0, defe=0,
        automizer=(1, "GL(1,F2)"), blocks=((1, 2),),
    )
    return catalog.FamilyEntry(**{**fields, **changes})


def _pe(entries, conj=False):
    return matgrp.ProjectiveElement("complex", conj, range(len(entries)), entries)


def _group(*gens):
    return matgrp.GeneratedSubgroup.generate(gens)


def _unrecorded(group):
    # the same generators and elements, without generate()'s build record
    keys = tuple(sorted(group.keys))
    return matgrp.GeneratedSubgroup(group.n, group.field_mode, group.generators, (), keys)


# (make, a value differing in a compared field, None or a value of make()'s
# compared fields with different uncompared ones), one per record type
_VALUES = {
    f2core.F2Vector: (lambda: f2core.F2Vector(3, 5), f2core.F2Vector(3, 6), None),
    f2core.F2Matrix: (
        lambda: f2core.F2Matrix.from_row_bits([1, 2], 2),
        f2core.F2Matrix.from_row_bits([2, 1], 2),
        None,
    ),
    sms.InvariantTuple: (lambda: sms.InvariantTuple(0, 0, 1, 1), sms.InvariantTuple(0, 1, 1, 1), None),
    sms.SymplecticMetricSpace: (
        lambda: sms.SymplecticMetricSpace(1, 2), sms.SymplecticMetricSpace(1, 0), None
    ),
    matgrp.ProjectiveElement: (lambda: _pe((0, 4)), _pe((0, 4), conj=True), None),
    matgrp.GeneratedSubgroup: (
        lambda: _group(_pe((0, 4))),
        _group(_pe((0, 4)), _pe((4, 4))),  # the same elements
        _unrecorded(_group(_pe((0, 4)))),
    ),
    matgrp.CanonicalSubgroup: (
        lambda: matgrp.canonical_subgroup(matgrp.ORTHOGONAL, sms.InvariantTuple(0, 0, 1, 0)),
        matgrp.canonical_subgroup(matgrp.ORTHOGONAL, sms.InvariantTuple(0, 0, 2, 0)),
        None,
    ),
    catalog.GraphInvariant: (
        lambda: catalog.GraphInvariant((1,), (0,), "single_vertex", None),
        catalog.GraphInvariant((1,), (0,), "empty", None),
        None,
    ),
    catalog.FamilyEntry: (_entry, _entry(rank_a=1), _entry(blocks=None)),
    catalog.CrossCheckReport: (
        lambda: catalog.CrossCheckReport(_entry(), True, ()),
        catalog.CrossCheckReport(_entry(), True, ("model rank 2 != stored 1",)),
        None,
    ),
    verify.Check: (lambda: verify.Check("rank 3", True), verify.Check("rank 3", True, "64"), None),
}


def test_value_cases_cover_every_record_type():
    assert set(f2core._Value.__subclasses__()) == set(_VALUES)


@pytest.mark.parametrize("cls", list(_VALUES), ids=lambda cls: cls.__name__)
def test_record_types_are_immutable_values(cls):
    make, other, uncompared = _VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != other and not a == other
    fields = list(inspect.signature(cls).parameters)
    assert a.__eq__(tuple(getattr(a, name) for name in fields)) is NotImplemented
    if uncompared is not None:
        assert a == uncompared and hash(a) == hash(uncompared)
        assert repr(a) == repr(uncompared)
    for name in fields + ["extra"]:
        before = getattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name, None) is before
    assert repr(a).startswith(f"{cls.__name__}(")
    assert a == b  # still, after the refused writes
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is cls
        assert all(getattr(twin, name) == getattr(a, name) for name in fields)
