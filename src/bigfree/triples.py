"""Canonical edge coordinates (w, a^p, t) for tree points, and the quotient.

Every tree point either is a group element (degenerate form: the bare word)
or sits strictly inside the edge from w to w a^p at offset t with
[] < t < L(a); w never ends in a^{-p}: ``tree.EdgePoint`` with a lattice
offset, the paper's Z^c interval.  The extraction routine finds the first
initial segment of the point's word whose length vector reaches the
offset; prefix lengths are strictly increasing in lex order, so "first" is
well defined and the representation is unique.

The quotient of the tree by the group action is a wedge of circles, one per
generator, with circumference the generator's length; projection and the
wrap-around circle metric live here too.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple, Union

from .ordered_abelian import (
    TOP,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    ParseError,
    ResourceLimitError,
    ZERO,
    check_index,
    check_int,
    index_name,
    parse_vector,
)
from .tree import (
    EdgePoint,
    TreePoint,
    act_edge_point,
    edge_point_dist,
    format_edge_point,
    parse_edge_point,
    position,
    word_point,
)
from .words import (
    IDENTITY,
    MAX_WORD_LETTERS,
    Word,
    _LETTER_NAME,
    harmonic_word,
    inverse,
    letter_name,
    multiply,
    parse_generator,
    word_dist,
)


def _lattice_offset(t) -> LexVector:
    if not isinstance(t, LexVector):
        raise BigFreeError(f"edge offset must be a LexVector, got {type(t).__name__}")
    return t


class EdgeTriple(EdgePoint):
    """Tree edge point: lattice offset t with [] < t < L(a)."""

    __slots__ = ()
    _span = staticmethod(LexVector.unit)
    _coerce = staticmethod(_lattice_offset)
    _vector = staticmethod(lambda index, t: t)


TriplePoint = Union[EdgeTriple, Word]


def to_triple(p: TreePoint) -> TriplePoint:
    """Canonical coordinates of a tree point, in one pass over its word.

    The first initial segment whose length vector reaches the offset n
    decides: an exact hit is the degenerate word form, otherwise the point
    lies strictly inside the edge entered by that segment's last letter.
    The scan keeps d = n - L(prefix) per index and the sign of d at its
    least nonzero index.  d only falls, so the least positive index is a
    pointer into n's sorted support and the least negative index a running
    minimum; the prefix reaches n once d is zero or negative there.
    """
    if p.n.is_zero():
        return IDENTITY
    entries = p.n.entries
    diff = dict(entries)
    neg = next((idx for idx, v in entries if v < 0), None)  # least index with d < 0
    k = 0  # entries[k] is the least index with d > 0, once the skip below has run
    letters = p.g.letters
    for i, (idx, sign) in enumerate(letters):
        d = diff.get(idx, 0) - 1
        diff[idx] = d
        if d < 0 and (neg is None or idx < neg):
            neg = idx
        while k < len(entries) and diff[entries[k][0]] <= 0:
            k += 1
        if k < len(entries) and (neg is None or entries[k][0] < neg):
            continue  # n - L(prefix) > 0
        if neg is None:
            return Word._make(letters[:i + 1], True)
        diff[idx] = d + 1  # back to n - L(base)
        t = LexVector._make(tuple(sorted((j, v) for j, v in diff.items() if v)))
        return EdgeTriple._make(Word._make(letters[:i], True), idx, sign, t)
    raise AssertionError("offset within [0, L(g)] must be reached by some prefix")


def from_triple(e: TriplePoint) -> TreePoint:
    """Tree point named by canonical coordinates; a bare word must be reduced.

    Only tree coordinates name a tree point: a graph point (``CayleyPoint``) is refused.
    """
    if isinstance(e, Word):
        return word_point(e)
    if not isinstance(e, EdgeTriple):
        raise BigFreeError(f"from_triple takes an edge triple or a reduced word, not a {type(e).__name__}")
    return TreePoint._make(position(e), e.far_word())


act_triple = act_edge_point
triple_dist = edge_point_dist  # the tree formula on the named points, without building them


def simplified_triple_dist(e1: EdgeTriple, e2: EdgeTriple) -> LexVector:
    """The shortcut formula: |t-s| on one edge, else L(w^-1 v) + t + s.

    Only stated for two proper edge points.  Known to overestimate when one
    edge lies on the geodesic between the points; use triple_dist_report to
    see whether it agrees with the exact value.
    """
    if (e1.w, e1.index, e1.sign) == (e2.w, e2.index, e2.sign):
        return abs(e1.t - e2.t)
    return word_dist(e1.w, e2.w) + e1.t + e2.t


class TripleDistReport(NamedTuple):
    exact: LexVector
    simplified: Optional[LexVector]  # None when either side is degenerate
    agrees: Optional[bool]


def triple_dist_report(e1: TriplePoint, e2: TriplePoint) -> TripleDistReport:
    exact = triple_dist(e1, e2)
    if isinstance(e1, Word) or isinstance(e2, Word):
        return TripleDistReport(exact, None, None)
    simplified = simplified_triple_dist(e1, e2)
    return TripleDistReport(exact, simplified, simplified == exact)


# -- quotient: wedge of circles ------------------------------------------------

class CirclePoint:
    """Point on the circle C_a of circumference L(a); s = 0 is the wedge point.

    All circles share the wedge point, so any two points with zero offset
    compare equal regardless of their circle index.
    """

    __slots__ = ("index", "s")

    def __init__(self, index: AlphabetIndex, s: LexVector):
        check_index(index)
        if not (ZERO <= s < LexVector.unit(index)):
            raise BigFreeError(f"circle offset {s} outside [0, L(a)) for index {index_name(index)}")
        self.index = index
        self.s = s

    @classmethod
    def _make(cls, index: AlphabetIndex, s: LexVector) -> "CirclePoint":
        """A point the library built itself, with 0 <= s < L(a): no re-check."""
        x = object.__new__(cls)
        x.index = index
        x.s = s
        return x

    def __eq__(self, other):
        if not isinstance(other, CirclePoint):
            return NotImplemented
        if self.s.is_zero() and other.s.is_zero():
            return True
        return (self.index, self.s) == (other.index, other.s)

    def __hash__(self):
        if self.s.is_zero():
            return hash("wedge")
        return hash((self.index, self.s))

    def __str__(self):
        return format_circle_point(self)

    def __repr__(self):
        return f"CirclePoint({format_circle_point(self)!r})"


WEDGE = CirclePoint._make(1, ZERO)


def project(e: TriplePoint) -> CirclePoint:
    """Quotient map onto the wedge of circles; constant on orbits.

    Group elements form a single orbit and land on the wedge point; an edge
    point lands at offset t on its circle, read against the positive
    orientation of the edge letter.  Only tree points project: a graph point
    (``CayleyPoint``) is refused.
    """
    if isinstance(e, Word):
        if not e.reduced:
            raise BigFreeError("degenerate triple word must be reduced")
        return WEDGE
    if not isinstance(e, EdgeTriple):
        raise BigFreeError(f"project takes an edge triple or a reduced word, not a {type(e).__name__}")
    if e.sign == 1:
        return CirclePoint._make(e.index, e.t)
    return CirclePoint._make(e.index, LexVector.unit(e.index) - e.t)


def circle_dist(x: CirclePoint, y: CirclePoint) -> LexVector:
    """Wrap-around metric on a circle; across circles, sum through the wedge."""
    if x.index == y.index:
        gap = abs(x.s - y.s)
        return min(gap, LexVector.unit(x.index) - gap)
    return min(x.s, LexVector.unit(x.index) - x.s) + min(y.s, LexVector.unit(y.index) - y.s)


def orbit_witness(e1: TriplePoint, e2: TriplePoint) -> Optional[Word]:
    """A group element carrying e1 to e2, or None when projections differ."""
    if project(e1) != project(e2):
        return None  # so both are words (the wedge) or both are edge points
    if isinstance(e1, Word):
        return multiply(e2, inverse(e1))
    if e1.sign == e2.sign:
        return multiply(e2.w, inverse(e1.w))
    return multiply(e2.far_word(), inverse(e1.w))


# -- the omega+1 witness --------------------------------------------------------

def top_edge_instability(depth: int) -> List[Tuple[int, Word, TriplePoint]]:
    """Canonical coordinates of <L(b), a_k ... a_1> for k = 1..depth.

    The edge letter comes out a_k at every depth: the representation uses a
    fresh letter at each stage and never stabilizes as the truncations grow.
    Raises ResourceLimitError when the depth(depth+1)/2 letters of the rows
    would pass MAX_WORD_LETTERS.
    """
    check_int(depth, "depth")
    if depth < 0:
        raise BigFreeError("depth must be >= 0")
    if depth * (depth + 1) // 2 > MAX_WORD_LETTERS:
        raise ResourceLimitError(f"depth {depth} would exceed {MAX_WORD_LETTERS} letters in all")
    top_unit = LexVector.unit(TOP)
    rows = []
    for k in range(1, depth + 1):
        w = Word._make(harmonic_word(k).letters[::-1], True)
        rows.append((k, w, to_triple(TreePoint._make(top_unit, w))))  # [] < L(b) < L(a1) <= L(w)
    return rows


# -- text forms ------------------------------------------------------------------

format_triple = format_edge_point


def parse_triple(text: str) -> TriplePoint:
    return parse_edge_point(text, lambda w, idx, sign, t: EdgeTriple(w, idx, sign, parse_vector(t)))


def format_circle_point(x: CirclePoint) -> str:
    return f"C({letter_name(x.index)}) @ {x.s}"


def parse_circle_point(text: str) -> CirclePoint:
    m = re.fullmatch(rf"\s*C\(({_LETTER_NAME})\)\s*@\s*(?P<s>.*)", text)
    if not m:
        raise ParseError(f"circle point must be 'C(a<k>) @ <vector>', got {text!r}")
    return CirclePoint(parse_generator(m.group(1)), parse_vector(m.group("s").strip()))
