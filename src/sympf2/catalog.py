"""Catalog of elementary abelian 2-subgroup classes for types G2..E8.

The catalog is formula-driven: each family contributes one entry per
admissible parameter tuple, carrying its rank, translation-subgroup rank,
defect index, residual ranks and automizer.  The automizer is stated once,
as named factors: each factor helper pairs one group's order formula with
its name, and the joins multiply the orders and join the names.  A class's
label model is its square map as a mu table, a SymplecticMetricSpace whose
polarization need not be bilinear, with mu = 1 exactly on the s1
involutions.  A family whose label model is an orthogonal product of
standard blocks states those blocks in its builder, and every stored number
is recounted from the model; every other family is formula-only.  No
Lie-theoretic computation happens anywhere.

Entry counts per type are (4, 12, 51, 78, 66).
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import Callable, Optional, Sequence

from .autgrp import _ImageSearch, sp_full_order, sp_metric_order, sp_order, sp_vector_order
from .f2core import _set, _Value, gl_order
from .sms import (
    _BLOCK_A,
    _BLOCK_C,
    _BLOCK_D,
    EPS_DELTA,
    SymplecticMetricSpace,
    _block_b,
    _orthogonal_product,
    _translates,
    _unpack,
    defect,
    validate,
)

LIE_TYPES = ("G2", "F4", "E6", "E7", "E8")

Automizer = tuple[int, str]  # (order, description)


def p_order(r: int, s: int) -> int:
    """|P(r,s,F2)|: invertible blockwise upper triangular (r,s) matrices."""
    return gl_order(r) * gl_order(s) * (1 << (r * s))


# --- automizer factors: one helper per named group, one join per product


def _gl(n: int) -> Automizer:
    return gl_order(n), f"GL({n},F2)"


def _p(r: int, s: int) -> Automizer:
    return p_order(r, s), f"P({r},{s},F2)"


def _f2(m: int) -> Automizer:
    return 1 << m, f"F2^{m}"


def _hom(a: int, b: int) -> Automizer:
    return 1 << a * b, f"Hom(F2^{a},F2^{b})"


def _sp(s: int) -> Automizer:
    return sp_order(s), f"Sp({s})"


def _sp_metric(s: int, e: int, d: int) -> Automizer:
    return sp_metric_order(s, e, d), f"Sp({s};{e},{d})"


def _sp_vector(s: int, t: int) -> Automizer:
    return sp_vector_order(s, t), f"Sp({s};{t})"


def _sp_full(e: int, d: int, r: int, s: int) -> Automizer:
    return sp_full_order(e, d, r, s), f"Sp({r},{s};{e},{d})"


def _join(a: Automizer, sep: str, b: Automizer) -> Automizer:
    """The product of the orders; each name holding a space is parenthesized."""
    (a_order, a_desc), (b_order, b_desc) = a, b
    if " " in a_desc:
        a_desc = f"({a_desc})"
    if " " in b_desc:
        b_desc = f"({b_desc})"
    return a_order * b_order, a_desc + sep + b_desc


def _semi(a: Automizer, b: Automizer) -> Automizer:
    """a : b, a semidirect product."""
    return _join(a, " : ", b)


def _times(a: Automizer, b: Automizer) -> Automizer:
    """a x b, a direct product."""
    return _join(a, " x ", b)


class GraphInvariant(_Value):
    """Quotient graph on translation cosets of s1-tagged elements.

    neighbours[i] is the neighbourhood of vertices[i] as a bit set over
    group elements: bit b is set when the representative b is adjacent.
    """

    __slots__ = _fields = ("vertices", "neighbours", "shape", "part_sizes")
    vertices: tuple[int, ...]
    neighbours: tuple[int, ...]
    shape: str
    part_sizes: Optional[tuple[int, int]]

    def __init__(
        self,
        vertices: tuple[int, ...],
        neighbours: tuple[int, ...],
        shape: str,
        part_sizes: Optional[tuple[int, int]],
    ) -> None:
        _set(self, "vertices", vertices)
        _set(self, "neighbours", neighbours)
        _set(self, "shape", shape)
        _set(self, "part_sizes", part_sizes)


class FamilyEntry(_Value):
    """One catalog class; automizer is its automizer group's (order,
    description), stated once by its builder as named factors.  blocks lists
    its label model's orthogonal factors as standard (rank, mu table)
    blocks, and is None for a formula-only entry.  bilinear predicts whether
    the polarization of the label table is bilinear (None: no prediction;
    stated for E8).  blocks and bilinear are neither compared nor shown."""

    _fields = (
        "lie_type", "family", "params", "rank", "rank_a", "defe",
        "automizer", "defe_is_convention", "res", "res2",
    )
    __slots__ = _fields + ("blocks", "bilinear")
    lie_type: str
    family: str
    params: tuple[int, ...]
    rank: int
    rank_a: int
    defe: Optional[int]
    automizer: Automizer
    defe_is_convention: bool
    res: Optional[int]
    res2: Optional[int]
    blocks: Optional[tuple[tuple[int, int], ...]]
    bilinear: Optional[bool]

    def __init__(
        self,
        lie_type: str,
        family: str,
        params: tuple[int, ...],
        rank: int,
        rank_a: int,
        defe: Optional[int],
        automizer: Automizer,
        defe_is_convention: bool = False,
        res: Optional[int] = None,
        res2: Optional[int] = None,
        blocks: Optional[tuple[tuple[int, int], ...]] = None,
        bilinear: Optional[bool] = None,
    ) -> None:
        _set(self, "lie_type", lie_type)
        _set(self, "family", family)
        _set(self, "params", params)
        _set(self, "rank", rank)
        _set(self, "rank_a", rank_a)
        _set(self, "defe", defe)
        _set(self, "automizer", automizer)
        _set(self, "defe_is_convention", defe_is_convention)
        _set(self, "res", res)
        _set(self, "res2", res2)
        _set(self, "blocks", blocks)
        _set(self, "bilinear", bilinear)

    @property
    def automizer_order(self) -> int:
        return self.automizer[0]

    @property
    def automizer_desc(self) -> str:
        return self.automizer[1]

    def sort_key(self) -> tuple:
        return (self.family, self.params)


def _g2_entries() -> list[FamilyEntry]:
    return [
        FamilyEntry(
            "G2", "F_{r}", (r,),
            rank=r, rank_a=0,
            defe=2 - (1 << r), defe_is_convention=True,
            automizer=_gl(r),
            blocks=(_block_b(r),),
        )
        for r in range(4)
    ]


def _f4_entries() -> list[FamilyEntry]:
    out = []
    for r in range(3):
        for s in range(4):
            out.append(
                FamilyEntry(
                    "F4", "F_{r,s}", (r, s),
                    rank=r + s, rank_a=r,
                    defe=(1 << r) * (2 - (1 << s)), defe_is_convention=True,
                    automizer=_p(r, s),
                    blocks=(_BLOCK_A,) * r + (_block_b(s),),
                )
            )
    return out


def _e6_entries() -> list[FamilyEntry]:
    out = []
    for r in range(3):
        for s in range(4):
            defe = (1 << r) * (2 - (1 << s))
            out.append(
                FamilyEntry(
                    "E6", "F_{r,s}", (r, s),
                    rank=1 + r + s, rank_a=r, defe=defe,
                    automizer=_semi(_f2(r), _p(r, s)),
                )
            )
            out.append(
                FamilyEntry(
                    "E6", "F'_{r,s}", (r, s),
                    rank=r + s, rank_a=r, defe=defe,
                    automizer=_p(r, s),
                    blocks=(_BLOCK_A,) * r + (_block_b(s),),
                )
            )
    for e, d in EPS_DELTA:
        for r in range(3):
            for s in range(3 - r):
                defe = (1 - e) * (-1) ** d * (1 << (r + s + d))
                inner = _semi(_hom(e + 2 * d + 2 * s, r), _times(_gl(r), _sp_metric(s, e, d)))
                out.append(
                    FamilyEntry(
                        "E6", "F_{eps,delta,r,s}", (e, d, r, s),
                        rank=1 + e + 2 * d + r + 2 * s, rank_a=r, defe=defe,
                        automizer=_semi(_f2(r + 2 * s + e + 2 * d), inner),
                    )
                )
                if s >= 1:
                    # the canonical layout (A^r | eps | delta-pair | s-pairs)
                    out.append(
                        FamilyEntry(
                            "E6", "F'_{eps,delta,r,s}", (e, d, r, s),
                            rank=e + 2 * d + r + 2 * s, rank_a=r, defe=defe,
                            automizer=inner,
                            blocks=(_BLOCK_A,) * r + (_block_b(1),) * e + (_block_b(2),) * d
                            + (_BLOCK_C,) * s,
                        )
                    )
    return out


def _e7_entries() -> list[FamilyEntry]:
    out = []
    for r in range(3):
        for s in range(4):
            out.append(
                FamilyEntry(
                    "E7", "F_{r,s}", (r, s),
                    rank=2 + r + s, rank_a=r,
                    defe=3 * (1 << r) * (2 - (1 << s)),
                    automizer=_semi(_hom(2, r), _times(_gl(2), _p(r, s))),
                )
            )
            out.append(
                FamilyEntry(
                    "E7", "F'_{r,s}", (r, s),
                    rank=1 + r + s, rank_a=r,
                    defe=(1 << r) * (2 - (1 << s)),
                    automizer=_semi(_f2(r), _p(r, s)),
                )
            )
    for e, d in EPS_DELTA:
        for r in range(3):
            for s in range(3 - r):
                defe = (1 - e) * (-1) ** d * (1 << (r + s + d)) - (
                    1 << (1 + r + e + 2 * s + 2 * d)
                )
                inner = _semi(_hom(e + 2 * d + 2 * s + 1, r), _times(_gl(r), _sp_vector(d + s, e)))
                out.append(
                    FamilyEntry(
                        "E7", "F_{eps,delta,r,s}", (e, d, r, s),
                        rank=2 + e + 2 * d + r + 2 * s, rank_a=r, defe=defe,
                        automizer=_semi(_f2(r + 2 * s + e + 2 * d + 1), inner),
                    )
                )
                if s >= 1:
                    out.append(
                        FamilyEntry(
                            "E7", "F'_{eps,delta,r,s}", (e, d, r, s),
                            rank=1 + e + 2 * d + r + 2 * s, rank_a=r,
                            defe=(1 - e) * (-1) ** d * (1 << (r + s + d)),
                            automizer=inner,
                        )
                    )
    for r in range(4):
        for s in range(4 - r):
            out.append(
                FamilyEntry(
                    "E7", "F''_{r,s}", (r, s),
                    rank=1 + r + 2 * s, rank_a=r, defe=None,
                    automizer=_semi(_semi(_f2(r + 2 * s), _hom(2 * s, r)), _times(_gl(r), _sp(s))),
                )
            )
            out.append(
                FamilyEntry(
                    "E7", "F'''_{r,s}", (r, s),
                    rank=r + 2 * s, rank_a=r, defe=None,
                    automizer=_semi(_hom(2 * s, r), _times(_gl(r), _sp(s))),
                )
            )
    for r in range(4):
        out.append(
            FamilyEntry(
                "E7", "F'_{r}", (r,),
                rank=2 + r, rank_a=r, defe=None,
                automizer=_semi(_hom(2, r), _times(_gl(r), _gl(2))),
            )
        )
    for r in range(3):
        out.append(
            FamilyEntry(
                "E7", "F''_{r}", (r,),
                rank=3 + r, rank_a=r, defe=None,
                automizer=_p(r, 3),
            )
        )
    return out


def _e8_sp_params(s: int) -> tuple[int, int]:
    """(eps, delta) of the automorphism group attached to A^r x B_s x B_2."""
    return 2 * s - s * s, (s - 1) * (s - 2) // 2


def _e8_entries() -> list[FamilyEntry]:
    out = []
    for r in range(3):
        for s in range(4):
            gl_pair = _times(_gl(s), _gl(3))
            if s == 3:  # the two GL(3,F2) factors may be swapped
                gl_pair = _semi(gl_pair, (2, "S2"))
            out.append(
                FamilyEntry(
                    "E8", "F_{r,s}", (r, s),
                    rank=3 + r + s, rank_a=r,
                    defe=3 * (1 << (r + 1)) * ((1 << s) - 2),
                    automizer=_semi(_hom(3 + s, r), _times(_gl(r), gl_pair)), res=0, res2=2,
                    blocks=(_BLOCK_A,) * r + (_block_b(s), _block_b(3)), bilinear=False,
                )
            )
    for r in range(3):
        for s in range(3):
            e, d = _e8_sp_params(s)
            out.append(
                FamilyEntry(
                    "E8", "F'_{r,s}", (r, s),
                    rank=2 + r + s, rank_a=r,
                    defe=(1 << (r + 1)) * ((1 << s) - 2),
                    automizer=_sp_full(e, d, r, s),
                    res=0, res2=1,
                    blocks=(_BLOCK_A,) * r + (_block_b(s), _block_b(2)), bilinear=True,
                )
            )
    for e, d in EPS_DELTA:
        for r in range(3):
            for s in range(3 - r):
                defe_tail = (1 - e) * (-1) ** (d + 1) * (1 << (r + s + d + 1))
                e2, d2 = e, (1 - e) * (1 - d)
                s2 = s + e + 2 * d
                out.append(
                    FamilyEntry(
                        "E8", "F_{eps,delta,r,s}", (e, d, r, s),
                        rank=3 + e + 2 * d + r + 2 * s, rank_a=r,
                        defe=defe_tail + (1 << (e + r + 2 * d + 2 * s)),
                        automizer=_semi(_f2(r + 2 * s + e + 2 * d + 2), _sp_full(e2, d2, r, s2)),
                        res=1, res2=2, bilinear=False,
                    )
                )
                if s >= 1:
                    out.append(
                        FamilyEntry(
                            "E8", "F'_{eps,delta,r,s}", (e, d, r, s),
                            rank=2 + e + 2 * d + r + 2 * s, rank_a=r,
                            defe=defe_tail,
                            automizer=_sp_full(e2, d2, r, s2),
                            res=0, res2=1,
                            blocks=(_BLOCK_A,) * r + (_BLOCK_C,) * s + (_block_b(1),) * e
                            + (_block_b(2),) * (1 + d),
                            bilinear=True,
                        )
                    )
    block_defe = {1: 0, 2: 2, 3: 6}
    piece = {1: _block_b(1), 2: _BLOCK_C, 3: _BLOCK_D}
    for r in range(4):
        for s in (1, 2, 3):
            out.append(
                FamilyEntry(
                    "E8", "F''_{r,s}", (r, s),
                    rank=r + s, rank_a=r,
                    defe=(1 << r) * block_defe[s], defe_is_convention=True,
                    automizer=_semi(_hom(s - 1, r + 1), _times(_semi(_f2(r), _gl(r)), _gl(s - 1))),
                    blocks=(_BLOCK_A,) * r + (piece[s],), bilinear=s != 3,
                )
            )
    for r in range(6):
        out.append(
            FamilyEntry(
                "E8", "F'_{r}", (r,),
                rank=r, rank_a=r,
                defe=1 << r, defe_is_convention=True,
                automizer=_gl(r),
                blocks=(_BLOCK_A,) * r, bilinear=True,
            )
        )
    return out


_BUILDERS: dict[str, Callable[[], list[FamilyEntry]]] = {
    "G2": _g2_entries,
    "F4": _f4_entries,
    "E6": _e6_entries,
    "E7": _e7_entries,
    "E8": _e8_entries,
}

EXPECTED_COUNTS = {"G2": 4, "F4": 12, "E6": 51, "E7": 78, "E8": 66}


def enumerate_type(lie_type: str) -> list[FamilyEntry]:
    """All catalog entries of one type, sorted by family tag then params."""
    if lie_type not in _BUILDERS:
        raise ValueError(f"unknown type {lie_type!r}; expected one of {LIE_TYPES}")
    out = _BUILDERS[lie_type]()
    out.sort(key=FamilyEntry.sort_key)
    return out


def enumerate_all() -> list[FamilyEntry]:
    out = []
    for lt in LIE_TYPES:
        out.extend(enumerate_type(lt))
    return out


# --- label models ------------------------------------------------------------


def build_label_model(entry: FamilyEntry) -> Optional[SymplecticMetricSpace]:
    """The product of the blocks stated with the entry's family, or None.

    The model is the subgroup's square map as a mu table, mu = 1 exactly on
    the s1 involutions (the s involutions for G2); its polarization need not
    be bilinear.  G2, F4, the two inner E6 families and the E8 families
    except F_{eps,delta,r,s} state blocks; every other family (all of E7,
    the two outer E6 families, and E8 F_{eps,delta,r,s}) is formula-only and
    returns None rather than a guess.
    """
    if entry.blocks is None:
        return None
    return SymplecticMetricSpace(*_orthogonal_product(entry.blocks))


def translation_subgroup(model: SymplecticMetricSpace) -> list[int]:
    """A_F = {x : mu(x) = +1 and m(x, y) = +1 for all y}, listed fully.

    That is mu(x + y) = mu(y) for all y: the translated table T_x is T.
    """
    return sorted(x for x, moved in _translates(model.rank, model.table) if moved == model.table)


def translation_rank(model: SymplecticMetricSpace) -> int:
    n = len(translation_subgroup(model))
    if n & (n - 1):
        raise AssertionError(f"translation subgroup of {model} has {n} elements")
    return n.bit_length() - 1


# --- cross checks --------------------------------------------------------------


# the one report record left, since the benchmark reads entry, has_model and ok
class CrossCheckReport(_Value):
    __slots__ = _fields = ("entry", "has_model", "problems")
    entry: FamilyEntry
    has_model: bool
    problems: tuple[str, ...]

    def __init__(self, entry: FamilyEntry, has_model: bool, problems: tuple[str, ...]) -> None:
        _set(self, "entry", entry)
        _set(self, "has_model", has_model)
        _set(self, "problems", problems)

    @property
    def ok(self) -> bool:
        return not self.problems


def cross_check(entry: FamilyEntry) -> CrossCheckReport:
    """Recount rank, rank_A and defe from the label model; check bilinearity.

    Bilinearity of the induced pairing is checked against the entry's
    bilinear prediction where its builder states one (the E8 families: it
    fails exactly on F_{r,s}, F_{eps,delta,r,s} (no model, so vacuous) and
    F''_{r,3}).
    """
    model = build_label_model(entry)
    if model is None:
        return CrossCheckReport(entry, False, ())
    problems = []
    if model.rank != entry.rank:
        problems.append(f"model rank {model.rank} != stored {entry.rank}")
    counted_defe = defect(model)
    if entry.defe is not None and counted_defe != entry.defe:
        problems.append(f"counted defe {counted_defe} != stored {entry.defe}")
    counted_ra = translation_rank(model)
    if counted_ra != entry.rank_a:
        problems.append(f"counted rank_A {counted_ra} != stored {entry.rank_a}")
    if entry.bilinear is not None:
        bilinear = validate(model)[0]
        if bilinear != entry.bilinear:
            problems.append(
                f"bilinearity {'holds' if bilinear else 'fails'} against prediction"
            )
    return CrossCheckReport(entry, True, tuple(problems))


def graph_of(entry: FamilyEntry) -> Optional[GraphInvariant]:
    """Quotient graph on translation cosets of s1-elements (E8 only)."""
    model = build_label_model(entry) if entry.lie_type == "E8" else None
    return None if model is None else _quotient_graph(model)


def _quotient_graph(model: SymplecticMetricSpace) -> GraphInvariant:
    """Vertices: the least element of each A_F-coset of elements with mu = 1.

    In an E8 label model those are the s1 elements.  Reps a and b are joined
    when mu(a + b) = 0 (a + b is tagged s2).  With R the bit set of the
    reps, a's neighbourhood is R & ~T_a minus a, where bit b of the
    translated table T_a is mu(a + b).  One walk of the translated tables
    gives A_F and T_x for every x with mu(x) = 1.
    """
    table, a_f, moved = model.table, [], {}  # moved[x] = T_x for the x with mu(x) = 1
    for x, t in _translates(model.rank, table):
        if t == table:
            a_f.append(x)
        if table >> x & 1:
            moved[x] = t
    rep = {x: min(x ^ a for a in a_f) for x in moved}
    reps = sorted(set(rep.values()))
    # mu(x + y) = mu(rep(x) + y) for all y makes the verdict constant on coset pairs
    if any(moved[x] != moved[a] for x, a in rep.items()):
        raise AssertionError(f"graph not constant on cosets of {model}")
    rep_mask = sum(1 << a for a in reps)
    neighbours = tuple(rep_mask & ~moved[a] & ~(1 << a) for a in reps)
    return GraphInvariant(tuple(reps), neighbours, *_classify_graph(neighbours))


def _classify_graph(neighbours: Sequence[int]) -> tuple[str, Optional[tuple[int, int]]]:
    """Shape from the vertices' neighbourhood bit sets."""
    if not neighbours:
        return "empty", None
    if len(neighbours) == 1:
        return "single_vertex", None
    if not any(neighbours):
        return "complete_bipartite", (0, len(neighbours))
    classes = set(neighbours)
    if len(classes) == 2:
        # No vertex is its own neighbour, so with edges present each of the
        # two neighbourhoods is the set of vertices having the other one.
        return "complete_bipartite", tuple(sorted(c.bit_count() for c in classes))
    return "other", None


def count_mu_automorphisms(model: SymplecticMetricSpace) -> int:
    """Invertible matrices preserving the mu table, counted by search.

    The autgrp search core's stabilizer-chain count (_ImageSearch.order:
    one existence search per orbit, each automorphism found kept as a
    generator) with the span-check rule, so non-bilinear tables work too.
    Labels are functions of mu, so this is also the group preserving the
    class tags.  The rank is at most sms.MAX_RANK, the count's bound, since
    the space type refuses any larger one.
    """
    k = model.rank
    mu = _unpack(k, model.table)
    return _ImageSearch(k, mu=mu).order()


# --- distinctness audit ---------------------------------------------------------


def distinctness_audit(lie_type: str) -> tuple[bool, tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Within-family separation by (rank, rank_A, defe); cross-family report.

    Cross-family ties on the numeric triple are emitted together with the
    discriminator that resolves them (family structure, or residual ranks
    for E8); the E8 candidate pattern between F'_{r,s} and
    F'_{eps,delta,r,s} is additionally checked to be empty, which is the
    parity argument.  Returns (ok, report lines, cross-family collisions),
    a collision being the labels of a tied pair.
    """
    entries = enumerate_type(lie_type)
    lines = []
    ok = True

    by_family: dict[str, list[FamilyEntry]] = {}
    for e in entries:
        by_family.setdefault(e.family, []).append(e)
    for fam, group in sorted(by_family.items()):
        seen: dict[tuple, tuple[int, ...]] = {}
        clean = True
        for e in group:
            key = (e.rank, e.rank_a, e.defe)
            if key in seen:
                ok = clean = False
                lines.append(
                    f"COLLISION within {fam}: params {seen[key]} and {e.params} "
                    f"share (rank, rank_A, defe) = {key}"
                )
            seen[key] = e.params
        if clean:
            lines.append(f"family {fam}: {len(group)} entries separated by (rank, rank_A, defe)")

    ties = [
        (a, b) for a, b in itertools.combinations(entries, 2)
        if a.family != b.family and (a.rank, a.rank_a, a.defe) == (b.rank, b.rank_a, b.defe)
    ]
    for a, b in ties:
        if (a.res, a.res2) != (b.res, b.res2):
            resolver = "residual ranks"
        else:
            resolver = "family structure (involution content)"
        lines.append(
            f"cross-family tie {a.family}{a.params} ~ {b.family}{b.params} "
            f"on (rank, rank_A, defe); resolved by {resolver}"
        )

    if lie_type == "E8":
        # parity argument: no (rank, rank_A, defe) tie between F'_{r',s'}
        # and F'_{eps,delta,r,s} can exist at all
        fam2, fam4 = "F'_{r,s}", "F'_{eps,delta,r,s}"
        clean = True
        for pair in ties:
            params = {e.family: e.params for e in pair}
            if params.keys() == {fam2, fam4}:
                ok = clean = False
                lines.append(
                    f"PARITY VIOLATION: {params[fam2]} vs {params[fam4]} not separated"
                )
        if clean:
            lines.append("parity check: no F'_{r,s} vs F'_{eps,delta,r,s} tie exists")

    collisions = tuple((f"{a.family}{a.params}", f"{b.family}{b.params}") for a, b in ties)
    return ok, tuple(lines), collisions


def e8_lift_entries() -> list[FamilyEntry]:
    """The E8 entries whose label model has an s1 element x with H_x = F.

    They are the 13 entries F_{r,1}, F'_{r,1}, F'_{1,0,r,s} (s >= 1) and
    F''_{r,1}, and they biject with the 13 pure-s1 classes of E7
    (families F'''_{r,s} and F''_{r}).
    """
    return [
        e for e in enumerate_type("E8")
        if (model := build_label_model(e)) is not None and model_has_full_hx(model)
    ]


def e7_pure_s1_entries() -> list[FamilyEntry]:
    return [e for e in enumerate_type("E7") if e.family in ("F'''_{r,s}", "F''_{r}")]


def model_has_full_hx(model: SymplecticMetricSpace) -> bool:
    """True when some x satisfies mu(x + y) = mu(y) + 1 for every y.

    Such an x has mu(x) = 1 (take y = 0), so in an E8 label model it is an
    s1 element with H_x = {y : tag(x + y) != tag(y)} all of F.
    """
    k, table = model.rank, model.table
    flipped = table ^ ((1 << (1 << k)) - 1)
    return any(moved == flipped for _, moved in _translates(k, table))


# --- export -------------------------------------------------------------------

CSV_COLUMNS = (
    "lie_type", "family", "params", "rank", "rank_A", "defe",
    "res", "res2", "automizer_order", "automizer_desc", "graph_summary",
)


def _graph_summary(entry: FamilyEntry) -> str:
    g = graph_of(entry)
    if g is None:
        return ""
    if g.shape == "complete_bipartite":
        a, b = g.part_sizes
        return f"complete_bipartite({a},{b})"
    if g.shape == "other":
        return f"other(v={len(g.vertices)},e={sum(map(int.bit_count, g.neighbours)) // 2})"
    return g.shape


def _row(entry: FamilyEntry) -> list[str]:
    return [
        entry.lie_type,
        entry.family,
        "(" + ",".join(str(x) for x in entry.params) + ")",
        str(entry.rank),
        str(entry.rank_a),
        "" if entry.defe is None else str(entry.defe),
        "" if entry.res is None else str(entry.res),
        "" if entry.res2 is None else str(entry.res2),
        str(entry.automizer_order),
        entry.automizer_desc,
        _graph_summary(entry),
    ]


def export_csv(entries: list[FamilyEntry]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        writer.writerow(_row(e))
    return buf.getvalue()


def export_text(entries: list[FamilyEntry]) -> str:
    lines = []
    any_convention = False
    for e in entries:
        row = _row(e)
        defe = row[5]
        if e.defe_is_convention and defe:
            defe += "*"
            any_convention = True
        lines.append(
            f"[{row[0]}] {row[1]} params={row[2]} rank={row[3]} rank_A={row[4]} "
            f"defe={defe or '-'} res={row[6] or '-'} res2={row[7] or '-'} "
            f"automizer_order={row[8]} automizer={row[9]}"
            + (f" graph={row[10]}" if row[10] else "")
        )
    if any_convention:
        lines.append("# * defect computed by the library's uniform counting convention")
    return "\n".join(lines) + "\n"
