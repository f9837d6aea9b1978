"""Automorphism groups of symplectic (metric) spaces over GF(2).

Closed-form orders on one side, basis-image backtracking (_ImageSearch) on
the other: it counts a group along a stabilizer chain built from the
automorphisms it finds, up to rank COUNT_RANK_BOUND, or lists every element,
up to rank ENUMERATION_RANK_BOUND.
The test suite confirms they agree.  Orders are plain Python ints, so there
is no overflow caveat anywhere.  The search's linear algebra (the pairing
systems and the span tables) is f2core's one elimination routine and span
table; this module holds no elimination of its own.
"""

from __future__ import annotations

from array import array
from math import prod
from typing import Iterator, Optional

from .f2core import F2Matrix, _add_constraint, _eliminate, _solutions, _span, _System, gl_order
from .sms import (
    MAX_RANK,
    InvariantTuple,
    SymplecticMetricSpace,
    _analyze,
    canonical,
)

COUNT_RANK_BOUND = MAX_RANK  # stabilizer-chain counts
ENUMERATION_RANK_BOUND = 8  # listing every automorphism


def sp_order(s: int) -> int:
    """|Sp(s)| over GF(2): prod_{1<=i<=s} (2^i-1)(2^i+1) * 2^(s^2)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    out = 1 << (s * s)
    for i in range(1, s + 1):
        out *= ((1 << i) - 1) * ((1 << i) + 1)
    return out


def sp_metric_order(s: int, eps: int, delta: int) -> int:
    """|Sp(s; eps, delta)|, the mu-preserving subgroup for V_{s;eps,delta}.

    The delta = 1 order is parameterized by the space's own s-invariant
    (the product formula's shifted index is absorbed here).
    """
    InvariantTuple(eps, delta, 0, s)
    if eps == 1:
        return sp_order(s)
    if delta == 0:
        if s == 0:
            return 1
        out = 1 << (s * s - s + 1)
        for i in range(1, s):
            out *= ((1 << (i + 1)) - 1) * ((1 << i) + 1)
        return out
    out = 3 << (s * s + s + 1)
    for i in range(1, s + 1):
        out *= ((1 << i) - 1) * ((1 << (i + 1)) + 1)
    return out


def sp_full_order(eps: int, delta: int, r: int, s: int) -> int:
    """|Sp(r,s;eps,delta)| = 2^(r(2s+2delta+eps)) |GL(r,2)| |Sp(s;eps,delta)|."""
    # the factors reject a negative or inadmissible argument before the shift
    return gl_order(r) * sp_metric_order(s, eps, delta) << r * (2 * s + 2 * delta + eps)


def sp_vector_order(s: int, t: int) -> int:
    """|Sp(s;t)| = 2^(2st) |GL(t,2)| |Sp(s)| for a 2s+t space with t-dim radical."""
    return gl_order(t) * sp_order(s) << 2 * s * t  # the factors reject a negative s or t


class _ImageSearch:
    """The one backtracking core: basis images w_j = T e_j of the automorphisms T of a space.

    Level j picks w_j outside span(w_0..w_{j-1}) by one of two rules:

    * Affine-solution rule (Gram matrix given): m(w_j, w_i) = m(e_j, e_i)
      for i < j.  Every automorphism T maps span(e_0..e_j) & ker m onto
      span(w_0..w_j) & ker m, so the candidates keep how the prefix meets
      the radical; this is what makes the search prune hard.  If e_j has a
      partner, a v in span(e_0..e_{j-1}) with e_j + v radical (found once,
      in __init__), then w_j + T v must be radical: the candidates are the
      coset T v + ker m, and each of them meets every pairing condition,
      since m(w_j, w_i) = m(T v, w_i) = m(v, e_i) = m(e_j, e_i) for i < j.
      Otherwise the pairings are a linear system in w_j, and a radical w_j
      is dropped, since e_j = T^-1 w_j would then be radical, with partner
      0.  Both cuts hold for every leaf, so they remove dead ends only.
      With a mu table given, w_j must also have mu(w_j) = mu(e_j); since
      mu(x + y) = mu(x) + mu(y) + m(x, y), preserving m and mu on a basis
      preserves mu everywhere.  Without a mu table only m is preserved.
    * Span-check rule (mu table only; mu need not be bilinear): w_j must
      have mu(T v + w_j) = mu(v + e_j) for every v in span(e_0..e_{j-1}),
      where T v is already fixed by the earlier levels.

    tuples() enumerates every leaf, ascending by images.  order() counts the
    automorphism group G with a stabilizer chain (Sims 1970).  With w_i =
    e_i fixed for i < j, the automorphisms extending that prefix form the
    pointwise stabilizer G_j, and the level-j candidates that extend to at
    least one leaf are exactly the orbit of e_j under G_j.  So |G| = |G_0|
    is the product over j of these orbit sizes.  The argument needs no
    Witt-type extension theorem.

    The levels run bottom-up, j = k-1 down to 0.  A level-j candidate gets
    one existence search that stops at its first leaf.  That leaf fixes
    e_0..e_{j-1}, so it lies in G_j and is kept as a generator; every
    generator kept so far (levels >= j) lies in G_j too.  Two orbit rules
    then spare searches:

    * a candidate already in the orbit of e_j under the kept generators
      extends (a product of generators takes e_j to it);
    * a candidate in the orbit of a dead end is a dead end: if h in G_j
      sends w to w' and g extends the prefix with e_j -> w', then h^-1 g
      extends it with e_j -> w.

    Each level's final orbit is the whole G_j-orbit of e_j: a candidate
    that extends is either in the orbit when reached, or its search adds a
    generator that puts it there.  So the product of the final orbit sizes
    is still |G|, and the kept generators with these orbits certify it as a
    lower bound without the search (_chain returns both).  Each kept
    generator is expanded once into its image table, f2core's _span of its
    basis images, and _close maps an orbit point with one lookup in it.  A
    table is an array('H'), 2 bytes an entry, which holds every word up to
    rank 16: counting V_{16,0;0,0} (135 tables) peaks at about 75 MB RSS,
    against about 360 MB with list tables.

    The pairing systems are f2core _System values, grown by one
    _add_constraint per level and read with _solutions; the partners come
    from one such pass over the Gram rows, and the pairing table is
    f2core's _span of them.  radical, a basis of ker m, is solved from gram
    unless the caller has it.  Only the span of the current images is kept
    here, pushed and popped with the search.
    """

    def __init__(
        self,
        rank: int,
        mu: Optional[bytes] = None,
        gram: Optional[list[int]] = None,
        radical: Optional[list[int]] = None,
    ):
        self.k = k = rank
        self.mu = mu
        self.gram = gram
        self.images: list[int] = []
        # span[v] = T v for v in span(e_0..e_{j-1}); in_span marks the T v
        self.span = [0] * (1 << k)
        self.in_span = bytearray(1 << k)
        self.in_span[0] = 1
        if gram is None:
            self.by_mu: tuple[list[int], list[int]] = ([], [])
            for w in range(1, 1 << k):
                self.by_mu[mu[w]].append(w)
        else:
            # systems[j]: m(w, images[i]) = m(e_j, e_i) for i < j, whose
            # right-hand sides are the bits of gram[j]
            self.systems: list[_System] = [([], [])]
            if radical is None:
                radical = _solutions(_eliminate(gram), 0, k)[1]
            self.radical = radical
            # pairing[w] encodes x -> m(x, w) as a bit mask
            self.pairing = _span(gram)
            # partners[j]: a v in span(e_0..e_{j-1}) with e_j + v radical, or
            # None.  Row j reduces to zero against the earlier rows exactly
            # when such a v exists, and its combo is then e_j + v.
            self.partners: list[Optional[int]] = []
            system: _System = ([], [])
            for j, row in enumerate(gram):
                found = len(system[1])
                system = _add_constraint(system, row, 1 << j)
                self.partners.append(system[1][-1] ^ 1 << j if len(system[1]) > found else None)

    def _candidates(self, j: int) -> Iterator[int]:
        if self.gram is None:
            return self._span_candidates(j)
        return self._affine_candidates(j)

    def _affine_candidates(self, j: int) -> Iterator[int]:
        v = self.partners[j]
        if v is not None:
            # the partner coset T v + ker m, whose pairings hold already
            particular, hom_basis, pairing = self.span[v], self.radical, None
        else:
            particular, hom_basis = _solutions(self.systems[-1], self.gram[j], self.k)
            if particular is None:
                return
            pairing = self.pairing
        mu = self.mu
        want = mu[1 << j] if mu is not None else 0
        in_span = self.in_span
        w = particular
        gray = 0
        for step in range(1 << len(hom_basis)):
            if step:
                nxt = step ^ (step >> 1)
                w ^= hom_basis[(gray ^ nxt).bit_length() - 1]
                gray = nxt
            if not in_span[w] and (mu is None or mu[w] == want) and (pairing is None or pairing[w]):
                yield w

    def _span_candidates(self, j: int) -> Iterator[int]:
        half = 1 << j
        mu = self.mu
        span = self.span
        in_span = self.in_span
        for w in self.by_mu[mu[half]]:
            if in_span[w]:
                continue
            for v in range(1, half):
                if mu[span[v] ^ w] != mu[half | v]:
                    break
            else:
                yield w

    def _push(self, w: int) -> None:
        half = 1 << len(self.images)
        self.images.append(w)
        span = self.span
        in_span = self.in_span
        for v in range(half):
            x = span[v] ^ w
            span[half | v] = x
            in_span[x] = 1
        if self.gram is not None:
            self.systems.append(_add_constraint(self.systems[-1], self.pairing[w], half))

    def _pop(self) -> None:
        self.images.pop()
        half = 1 << len(self.images)
        span = self.span
        in_span = self.in_span
        for v in range(half, 2 * half):
            in_span[span[v]] = 0
        if self.gram is not None:
            self.systems.pop()

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """Every leaf (w_0, .., w_{k-1}), ascending."""
        j = len(self.images)
        if j == self.k:
            yield ()
            return
        cands = sorted(self._candidates(j))
        if j + 1 == self.k:
            prefix = tuple(self.images)
            for w in cands:
                yield prefix + (w,)
            return
        for w in cands:
            self._push(w)
            yield from self.tuples()
            self._pop()

    def _leaf(self, w: int) -> Optional[tuple[int, ...]]:
        """The first leaf below the current prefix followed by w, or None."""
        if len(self.images) + 1 == self.k:
            return (*self.images, w)
        self._push(w)
        leaf = None
        for x in self._candidates(len(self.images)):
            leaf = self._leaf(x)
            if leaf is not None:
                break
        self._pop()
        return leaf

    def _chain(self) -> tuple[list[list[int]], list[list[tuple[int, ...]]]]:
        """(orbits, generators) by level.

        orbits[j] is the orbit of e_j under the generators of levels >= j,
        e_j first; generators[j] holds the leaves kept at level j, each the
        image tuple (T e_0, .., T e_{k-1}) of an automorphism fixing
        e_0..e_{j-1}.
        """
        k = self.k
        for j in range(k - 1):
            self._push(1 << j)
        orbits: list[list[int]] = [[] for _ in range(k)]
        kept: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
        # the image table of every generator kept so far, levels >= j
        tables: list[array] = []
        for j in reversed(range(k)):
            e = 1 << j
            # 1 marks the orbit of e_j, 2 the orbits of dead ends; the
            # generators of levels > j fix e_j, so its orbit starts alone
            mark = bytearray(1 << k)
            mark[e] = 1
            orbit = [e]
            for w in self._candidates(j):
                if mark[w]:
                    continue
                leaf = self._leaf(w)
                if leaf is None:
                    mark[w] = 2
                    _close([w], mark, 2, tables, 0)
                else:
                    kept[j].append(leaf)
                    tables.append(array("H", _span(leaf)))
                    _close(orbit, mark, 1, tables, len(tables) - 1)
            orbits[j] = orbit
            if j:
                self._pop()
        return orbits, kept

    def order(self) -> int:
        """|Aut|, the product of the orbit sizes."""
        return prod(len(orbit) for orbit in self._chain()[0])


def _close(points: list[int], mark: bytearray, flag: int, tables: list[array], new: int) -> None:
    """Close points, each marked flag, under the generators by marking and appending images.

    A generator is given by its image table, _span of its basis images:
    entry v is its image of v.  The points already listed have been closed
    under tables[:new]; the ones appended here see every table.
    """
    listed = len(points)
    fresh = tables[new:]
    append = points.append
    # the loop also reaches the points appended while it runs
    for i, v in enumerate(points):
        for table in fresh if i < listed else tables:
            x = table[v]
            if not mark[x]:
                mark[x] = flag
                append(x)


def _space_search(space: SymplecticMetricSpace) -> _ImageSearch:
    """The automorphism search of space, after one validation."""
    _, mu, gram, ker, _ = _analyze(space)
    return _ImageSearch(space.rank, mu, gram, ker)


def enumerate_automorphisms(space: SymplecticMetricSpace) -> Iterator[F2Matrix]:
    """Every mu-preserving invertible matrix, each exactly once, ascending by images."""
    if space.rank > ENUMERATION_RANK_BOUND:
        raise ValueError(f"enumeration is bounded at rank <= {ENUMERATION_RANK_BOUND}")
    for images in _space_search(space).tuples():
        # images are the columns of T
        yield F2Matrix.from_row_bits(list(images), space.rank).transpose()


def count_automorphisms(space: SymplecticMetricSpace) -> int:
    """|Aut(space)| as the product of the orbit sizes of a stabilizer chain.

    An independent check on sp_full_order: the search knows nothing of the
    formula.  _ImageSearch.order() keeps each automorphism an existence
    search finds and searches once per orbit; the tests compare its count
    with the leaf enumeration and with one existence search per candidate.
    """
    return _space_search(space).order()


def plain_symplectic_space(s: int, t: int) -> tuple[int, ...]:
    """The Gram rows of (V, m) of rank 2s + t with s hyperbolic pairs and a
    t-dim radical: bit j of row i is m(e_i, e_j)."""
    k = 2 * s + t
    rows = [0] * k
    for p in range(s):
        rows[2 * p] |= 1 << (2 * p + 1)
        rows[2 * p + 1] |= 1 << (2 * p)
    return tuple(rows)


def count_pairing_automorphisms(gram: tuple[int, ...]) -> int:
    """|Sp(s;t)| of a pairing-only space, given by its Gram rows: invertible
    matrices preserving m.

    The search core's stabilizer-chain count (_ImageSearch.order) with the
    affine-solution rule and no mu condition; it verifies the Sp(s;t) order
    formula.
    """
    if len(gram) > COUNT_RANK_BOUND:
        raise ValueError(f"pairing-automorphism counting is bounded at rank <= {COUNT_RANK_BOUND}")
    return _ImageSearch(len(gram), gram=list(gram)).order()


def mu_zero_nonzero_count(s: int) -> int:
    """Nonzero vectors of V_{s;0,0} on which the form vanishes, by count."""
    space = canonical(InvariantTuple(0, 0, 0, s))
    return sum(1 for v in range(1, 1 << space.rank) if space.mu(v) == 0)
