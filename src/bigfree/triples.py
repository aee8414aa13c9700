"""Canonical edge coordinates (w, a^p, t) for tree points, and the quotient.

Every tree point either is a group element (degenerate form: the bare word)
or sits strictly inside the edge from w to w a^p at offset t with
[] < t < L(a); w never ends in a^{-p}.  The extraction routine finds the
first initial segment of the point's word whose length vector reaches the
offset; prefix lengths are strictly increasing in lex order, so "first" is
well defined and the representation is unique.

The quotient of the tree by the group action is a wedge of circles, one per
generator, with circumference the generator's length; projection and the
wrap-around circle metric live here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .ordered_abelian import (
    TOP,
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    OMEGA,
    ParseError,
    ZERO,
    check_index,
    parse_vector,
)
from .tree import TreePoint, tree_dist
from .words import (
    IDENTITY,
    Word,
    format_word,
    inverse,
    length_vector,
    multiply,
    parse_word,
    reversed_harmonic_stream,
    truncate,
    word_dist,
)


class EdgeTriple:
    """Interior edge point: base word, signed letter, strict offset."""

    __slots__ = ("w", "index", "sign", "t")

    def __init__(self, w: Word, index: AlphabetIndex, sign: int, t: LexVector):
        check_index(index)
        if sign not in (1, -1):
            raise BigFreeError(f"edge sign must be +1 or -1, got {sign!r}")
        if not w.reduced:
            raise BigFreeError("triple base word must be reduced")
        if w.letters and w.letters[-1] == (index, -sign):
            raise BigFreeError("non-canonical triple: base word ends in the inverse letter")
        if not (ZERO < t < LexVector.unit(index)):
            raise BigFreeError(f"edge offset {t} outside (0, L(a)) for index {index!r}")
        self.w = w
        self.index = index
        self.sign = sign
        self.t = t

    def edge_letter(self) -> Tuple[AlphabetIndex, int]:
        return (self.index, self.sign)

    def far_word(self) -> Word:
        """The endpoint w a^p (already reduced by canonicality)."""
        return Word._make(self.w.letters + ((self.index, self.sign),), True)

    def __eq__(self, other):
        if not isinstance(other, EdgeTriple):
            return NotImplemented
        return (self.w, self.index, self.sign, self.t) == (other.w, other.index, other.sign, other.t)

    def __hash__(self):
        return hash((self.w, self.index, self.sign, self.t))

    def __str__(self):
        return format_triple(self)

    def __repr__(self):
        return f"EdgeTriple({format_triple(self)!r})"


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
        return EdgeTriple(Word._make(letters[:i], True), idx, sign, t)
    raise AssertionError("offset within [0, L(g)] must be reached by some prefix")


def from_triple(e: TriplePoint) -> TreePoint:
    """Tree point named by canonical coordinates."""
    if isinstance(e, Word):
        if not e.reduced:
            raise BigFreeError("degenerate triple word must be reduced")
        return TreePoint(length_vector(e), e)
    return TreePoint(length_vector(e.w) + e.t, e.far_word())


def act_triple(u: Word, e: TriplePoint) -> TriplePoint:
    """Left action in triple coordinates; output stays canonical."""
    if not u.reduced:
        raise BigFreeError("acting word must be reduced")
    if isinstance(e, Word):
        return multiply(u, e)
    uw = multiply(u, e.w)
    if uw.letters and uw.letters[-1] == (e.index, -e.sign):
        flipped = Word._make(uw.letters[:-1], True)
        return EdgeTriple(flipped, e.index, -e.sign, LexVector.unit(e.index) - e.t)
    return EdgeTriple(uw, e.index, e.sign, e.t)


def triple_dist(e1: TriplePoint, e2: TriplePoint) -> LexVector:
    """Exact distance: the general tree formula on the named points."""
    return tree_dist(from_triple(e1), from_triple(e2))


def simplified_triple_dist(e1: EdgeTriple, e2: EdgeTriple) -> LexVector:
    """The shortcut formula: |t-s| on one edge, else L(w^-1 v) + t + s.

    Only stated for two proper edge points.  Known to overestimate when one
    edge lies on the geodesic between the points; use triple_dist_report to
    see whether it agrees with the exact value.
    """
    if (e1.w, e1.index, e1.sign) == (e2.w, e2.index, e2.sign):
        return abs(e1.t - e2.t)
    return word_dist(e1.w, e2.w) + e1.t + e2.t


@dataclass(frozen=True)
class TripleDistReport:
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
            raise BigFreeError(f"circle offset {s} outside [0, L(a)) for index {index!r}")
        self.index = index
        self.s = s

    def is_wedge(self) -> bool:
        return self.s.is_zero()

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


WEDGE = CirclePoint(1, ZERO)


def project(e: TriplePoint) -> CirclePoint:
    """Quotient map onto the wedge of circles; constant on orbits.

    Group elements form a single orbit and land on the wedge point; an edge
    point lands at offset t on its circle, read against the positive
    orientation of the edge letter.
    """
    if isinstance(e, Word):
        if not e.reduced:
            raise BigFreeError("degenerate triple word must be reduced")
        return WEDGE
    if e.sign == 1:
        return CirclePoint(e.index, e.t)
    return CirclePoint(e.index, LexVector.unit(e.index) - e.t)


def circle_dist(x: CirclePoint, y: CirclePoint) -> LexVector:
    """Wrap-around metric on a circle; across circles, sum through the wedge."""
    if x.index == y.index:
        gap = abs(x.s - y.s)
        return min(gap, LexVector.unit(x.index) - gap)
    if x.is_wedge():
        return min(y.s, LexVector.unit(y.index) - y.s)
    if y.is_wedge():
        return min(x.s, LexVector.unit(x.index) - x.s)
    return min(x.s, LexVector.unit(x.index) - x.s) + min(y.s, LexVector.unit(y.index) - y.s)


def orbit_witness(e1: TriplePoint, e2: TriplePoint) -> Optional[Word]:
    """A group element carrying e1 to e2, or None when projections differ."""
    if project(e1) != project(e2):
        return None
    if isinstance(e1, Word) and isinstance(e2, Word):
        return multiply(e2, inverse(e1))
    if isinstance(e1, Word) or isinstance(e2, Word):
        return None  # wedge never equals an interior projection
    if e1.sign == e2.sign:
        return multiply(e2.w, inverse(e1.w))
    step = Word._make(((e2.index, e2.sign),), True)
    return multiply(multiply(e2.w, step), inverse(e1.w))


# -- the omega+1 witness --------------------------------------------------------

def top_edge_instability(depth: int) -> List[Tuple[int, Word, TriplePoint]]:
    """Canonical coordinates of <L(b), a_k ... a_1> for k = 1..depth.

    The edge letter comes out a_k at every depth: the representation uses a
    fresh letter at each stage and never stabilizes as the truncations grow.
    """
    if depth < 0:
        raise BigFreeError("depth must be >= 0")
    stream = reversed_harmonic_stream()
    top_unit = LexVector.unit(TOP)
    rows = []
    for k in range(1, depth + 1):
        w = truncate(stream, k)
        rows.append((k, w, to_triple(TreePoint(top_unit, w))))
    return rows


# -- text forms ------------------------------------------------------------------

def format_triple(e: TriplePoint) -> str:
    if isinstance(e, Word):
        return format_word(e)
    name = "b" if e.index is TOP else f"a{e.index}"
    return f"({format_word(e.w)} ; {name}^{e.sign} ; {e.t})"


def parse_letter_token(token: str, alphabet: Alphabet) -> Tuple[AlphabetIndex, int]:
    """Parse ``a<k>``/``b`` with optional ``^1``/``^-1``."""
    m = re.fullmatch(r"(?:a([1-9][0-9]*)|b)(?:\^(-?1))?", token.strip())
    if not m:
        raise ParseError(f"bad letter token {token!r}")
    idx: AlphabetIndex = TOP if m.group(1) is None else int(m.group(1))
    alphabet.check_index(idx)
    sign = 1 if m.group(2) is None else int(m.group(2))
    return idx, sign


def parse_triple(text: str, alphabet: Alphabet = OMEGA) -> TriplePoint:
    raw = text.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        w = parse_word(raw, alphabet)
        if not w.reduced:
            raise BigFreeError("degenerate triple word must be reduced")
        return w
    parts = raw[1:-1].split(";")
    if len(parts) != 3:
        raise BigFreeError(f"triple must be '(<word> ; a<k>^<p> ; <vector>)', got {text!r}")
    w = parse_word(parts[0].strip(), alphabet)
    idx, sign = parse_letter_token(parts[1], alphabet)
    t = parse_vector(parts[2].strip(), alphabet)
    return EdgeTriple(w, idx, sign, t)


def format_circle_point(x: CirclePoint) -> str:
    name = "b" if x.index is TOP else f"a{x.index}"
    return f"C({name}) @ {x.s}"


def parse_circle_point(text: str, alphabet: Alphabet = OMEGA) -> CirclePoint:
    m = re.fullmatch(r"\s*C\((a[1-9][0-9]*|b)\)\s*@\s*(.*)", text)
    if not m:
        raise ParseError(f"circle point must be 'C(a<k>) @ <vector>', got {text!r}")
    idx, _ = parse_letter_token(m.group(1), alphabet)
    return CirclePoint(idx, parse_vector(m.group(2).strip(), alphabet))
