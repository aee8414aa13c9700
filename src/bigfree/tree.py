"""Tree points <n, g>, the tree metric, the isometric action, length axioms.

A point is an offset n with [] <= n <= L(g) along the interval toward the
group element g; two points are the same point of the tree iff they carry
the same offset and it does not exceed the Gromov product of their words.
That product c(g, h) is the length vector of the common prefix, so it is
integral and is compared against offsets as it is; a vector is doubled only
where c itself is subtracted twice: in ``interval_dist`` when c is the least
of the two offsets and c, and in the far branch of the action.  The action
reads both c and the product h g off the letters of g that cancel against
h: the one junction scan that ``multiply`` also makes.

``EdgePoint`` is the one model of a point inside the edge from w to w a^p:
the tree puts a lattice offset there (the paper's Z^c interval), the Cayley
graph a rational one (its R interval); action, text form and distance are shared.
The distance counts only the letters past the branch point of the two far words.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .ordered_abelian import (
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    HalfError,
    LexVector,
    OMEGA,
    ParseError,
    ZERO,
    check_index,
    half_exact,
    parse_vector,
)
from .words import (
    IDENTITY,
    Word,
    _count_vector,
    _junction,
    _prefix_len,
    common_prefix,
    format_word,
    gromov,
    inverse,
    length_vector,
    letter_name,
    multiply,
    parse_letter_token,
    parse_word,
    reduce,
)


class TreePoint:
    """Offset/word pair; equality is the tree relation, so it is unhashable.

    Canonicalize through the edge-triple form before hashing or indexing.
    """

    __slots__ = ("n", "g")

    def __init__(self, n: LexVector, g: Word):
        if not g.reduced:
            raise BigFreeError("tree point word must be reduced")
        glen = length_vector(g)
        if n < ZERO or n > glen:
            raise BigFreeError(f"offset {n} outside [0, {glen}]")
        self.n = n
        self.g = g

    def __eq__(self, other):
        if not isinstance(other, TreePoint):
            return NotImplemented
        return point_eq(self, other)

    __hash__ = None  # representatives are non-unique; hash the triple form

    def __str__(self):
        return format_tree_point(self)

    def __repr__(self):
        return f"TreePoint({format_tree_point(self)!r})"


BASEPOINT = TreePoint(ZERO, IDENTITY)


def word_point(g: Word) -> TreePoint:
    """The isometric embedding of a group element."""
    return TreePoint(length_vector(g), g)


def point_eq(p: TreePoint, q: TreePoint) -> bool:
    """Same offset, not exceeding the Gromov product of the two words."""
    return p.n == q.n and p.n <= gromov(p.g, q.g)


def interval_dist(n: LexVector, g: Word, m: LexVector, h: Word) -> LexVector:
    """Distance n + m - 2 min{n, m, c(g, h)} of the points at n on [1, g] and m on [1, h].

    When n or m is the minimum the two points lie on one geodesic from the
    identity and the distance is the difference of their offsets.
    """
    c = gromov(g, h)
    if n <= m and n <= c:
        return m - n
    if m <= n and m <= c:
        return n - m
    return n + m - c.double()


def tree_dist(p: TreePoint, q: TreePoint) -> LexVector:
    """The tree metric on two points."""
    return interval_dist(p.n, p.g, q.n, q.g)


def tree_act(h: Word, p: TreePoint) -> TreePoint:
    """Move p to the point at the same offset along [h, h g]."""
    if not h.reduced:
        raise BigFreeError("acting word must be reduced")
    # c(g, h^-1) is the letter count of the k letters of g that cancel against h
    k, hg = _junction(h.letters, p.g.letters)
    c = _count_vector(p.g.letters[:k])
    h_len = length_vector(h)
    if p.n <= c:
        return TreePoint(h_len - p.n, h)
    return TreePoint(h_len + p.n - c.double(), Word._make(hg, True))


def y_point(v: Word, x: Word, y: Word) -> Word:
    """Median of three group elements: the branch point of [v,x] and [v,y]."""
    for w in (v, x, y):
        if not w.reduced:
            raise BigFreeError("y_point arguments must be reduced")
    v_inv = inverse(v)
    return multiply(v, common_prefix(multiply(v_inv, x), multiply(v_inv, y)))


def format_tree_point(p: TreePoint) -> str:
    return f"{p.n} @ {format_word(p.g)}"


def parse_tree_point(text: str, alphabet: Alphabet = OMEGA) -> TreePoint:
    if "@" not in text:
        raise ParseError(f"tree point must look like '<vector> @ <word>', got {text!r}")
    vec_part, word_part = text.split("@", 1)
    n = parse_vector(vec_part.strip(), alphabet)
    return TreePoint(n, parse_word(word_part.strip(), alphabet))


# -- edge points -----------------------------------------------------------------

class EdgePoint:
    """Point strictly inside the edge from w to w a^p, at offset t from w.

    Canonical: w is reduced, does not end in a^{-p}, and 0 < t < span.  A
    subclass names its offset domain: ``_span(index)``, the edge length in
    it; ``_coerce(t)``; ``_vector(index, t)``, the offset as a length vector.
    Points of different subclasses never compare equal.
    """

    __slots__ = ("w", "index", "sign", "t")

    def __init__(self, w: Word, index: AlphabetIndex, sign: int, t):
        check_index(index)
        if sign not in (1, -1):
            raise BigFreeError(f"edge sign must be +1 or -1, got {sign!r}")
        if not w.reduced:
            raise BigFreeError("edge base word must be reduced")
        if w.letters and w.letters[-1] == (index, -sign):
            raise BigFreeError("non-canonical edge point: base word ends in the inverse letter")
        t = self._coerce(t)
        if not (self._vector(index, t).sign() > 0 and t < self._span(index)):  # 0 < t < span
            raise BigFreeError(f"edge offset {t} outside (0, {self._span(index)}) for index {index!r}")
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
        if type(other) is not type(self):
            return NotImplemented
        return (self.w, self.index, self.sign, self.t) == (other.w, other.index, other.sign, other.t)

    def __hash__(self):
        return hash((self.w, self.index, self.sign, self.t))

    def __str__(self):
        return format_edge_point(self)

    def __repr__(self):
        return f"{type(self).__name__}({format_edge_point(self)!r})"


def position(x) -> LexVector:
    """Distance from the identity of a word or an edge point: L(w) + offset."""
    if isinstance(x, Word):
        return length_vector(x)
    return length_vector(x.w) + x._vector(x.index, x.t)


def direction_word(x) -> Word:
    """The word whose interval from the identity contains x."""
    return x if isinstance(x, Word) else x.far_word()


def _base_far_offset(x) -> Tuple[tuple, tuple, Optional[LexVector]]:
    """Letters of the base and far words of x, and its offset past the base (None for a word)."""
    if isinstance(x, Word):
        far = reduce(x).letters
        return far, far, None
    return x.w.letters, x.w.letters + ((x.index, x.sign),), x._vector(x.index, x.t)


def _back(x) -> LexVector:
    """How far x sits before the end of its far word: span - t as a length vector, zero for a word."""
    return ZERO if isinstance(x, Word) else x._vector(x.index, x._span(x.index) - x.t)


def edge_point_dist(x, y) -> LexVector:
    """Exact distance between words or edge points of one model, past the branch point.

    A point sits at L(far) - back on the geodesic from the identity to its
    far word.  One scan finds the k letters the two far words share.  A
    point whose far word goes on past them lies beyond the branch point, by
    its base word's letters past k plus its offset; otherwise its far word
    ends at the branch point and it sits ``back`` before it.  No L(w) and
    no prefix is counted.  ``interval_dist`` on ``position`` and
    ``direction_word`` is the oracle.
    """
    wx, fx, ox = _base_far_offset(x)
    wy, fy, oy = _base_far_offset(y)
    k = _prefix_len(fx, fy)
    if k < len(fx) and k < len(fy):  # both past the branch point
        d = _count_vector(wx[k:] + wy[k:])
        for offset in (ox, oy):
            if offset is not None:
                d = d + offset
        return d
    if k == len(fy) < len(fx):
        x, y, fx, fy = y, x, fy, fx
    if k < len(fy):  # fx is a proper prefix of fy
        return _count_vector(fy[k:]) - _back(y) + _back(x)
    return abs(_back(x) - _back(y))  # same far word


def act_edge_point(u: Word, x):
    """Left action on a word or an edge point; output stays canonical.

    When u w ends in the inverse edge letter, the sign flips and t becomes span - t.
    """
    if not u.reduced:
        raise BigFreeError("acting word must be reduced")
    if isinstance(x, Word):
        return multiply(u, x)
    uw = multiply(u, x.w)
    if uw.letters and uw.letters[-1] == (x.index, -x.sign):
        return type(x)(Word._make(uw.letters[:-1], True), x.index, -x.sign, x._span(x.index) - x.t)
    return type(x)(uw, x.index, x.sign, x.t)


def format_edge_point(x) -> str:
    """A bare word, or ``(<word> ; <letter>^<sign> ; <offset>)``."""
    if isinstance(x, Word):
        return format_word(x)
    return f"({format_word(x.w)} ; {letter_name(x.index)}^{x.sign} ; {x.t})"


def parse_edge_point(text: str, alphabet: Alphabet, build: Callable):
    """Inverse of ``format_edge_point``: a reduced bare word, or build(w, index, sign, offset text)."""
    raw = text.strip()
    if not raw.startswith("("):
        w = parse_word(raw, alphabet)
        if not w.reduced:
            raise BigFreeError("bare-word point must be reduced")
        return w
    # the offset may hold ";TOP="; word and letter never do
    parts = raw[1:-1].split(";", 2) if raw.endswith(")") else ()
    if len(parts) != 3:
        raise BigFreeError(f"edge point must be '(<word> ; a<k>^<p> ; <offset>)', got {text!r}")
    w = parse_word(parts[0].strip(), alphabet)
    idx, sign = parse_letter_token(parts[1], alphabet)
    return build(w, idx, sign, parts[2].strip())


# -- length-function axioms ---------------------------------------------------

class LengthOracle(NamedTuple):
    """Group operations plus a candidate length map into the ordered group."""

    multiply: Callable
    inverse: Callable
    identity: object
    length: Callable


class AxiomViolation(NamedTuple):
    axiom: str  # "axiom1" | "axiom2" | "integrality" | "axiom3"
    elements: tuple
    message: str


def bf_length_oracle() -> LengthOracle:
    """The letter-count length function on reduced words."""
    return LengthOracle(multiply=multiply, inverse=inverse, identity=IDENTITY, length=length_vector)


def check_length_axioms(oracle: LengthOracle, sample: Sequence) -> Optional[AxiomViolation]:
    """First violation of the length-function axioms over the sample, or None.

    The sample should be closed under inverses; products are only ever formed
    pairwise inside Gromov products.  Axioms: (1) zero length exactly at the
    identity, (2) inverse symmetry, (3) the ultrametric inequality
    c(g,h) >= min{c(g,k), c(h,k)} for all sample triples, with every doubled
    product even (so each c lies in the lattice).  An axiom-3 witness is the
    triple ``ultrametric_violation`` fails on, not the first in a fixed order.
    """
    elems = list(sample)
    lengths = [oracle.length(g) for g in elems]
    for g, lg in zip(elems, lengths):
        zero_len = lg == ZERO
        is_id = g == oracle.identity
        if zero_len != is_id:
            return AxiomViolation("axiom1", (g,), f"L({g!r}) = {lg} but identity is {is_id}")
    for g, lg in zip(elems, lengths):
        li = oracle.length(oracle.inverse(g))
        if li != lg:
            return AxiomViolation("axiom2", (g,), f"L(g) = {lg} != {li} = L(g^-1)")

    n = len(elems)
    doubled = [[None] * n for _ in range(n)]
    for i in range(n):
        gi_inv = oracle.inverse(elems[i])
        for j in range(i, n):
            two_c = lengths[i] + lengths[j] - oracle.length(oracle.multiply(gi_inv, elems[j]))
            try:
                half_exact(two_c)
            except HalfError:
                return AxiomViolation(
                    "integrality", (elems[i], elems[j]),
                    f"2 c(g,h) = {two_c} is not evenly divisible")
            doubled[i][j] = doubled[j][i] = two_c
    triple = ultrametric_violation(doubled)
    if triple is not None:
        g, h, k = triple
        return AxiomViolation("axiom3", (elems[g], elems[h], elems[k]),
                              f"c(g,h) = {doubled[g][h]}/2 < min of {doubled[g][k]}/2, {doubled[h][k]}/2")
    return None


def ultrametric_violation(table: Sequence[Sequence]) -> Optional[Tuple[int, int, int]]:
    """Indices (g, h, k) with table[g][h] < min(table[g][k], table[h][k]), or None.

    For a symmetric table, in O(n^2) compares: with p the first k < j of largest
    table[j][k], every triple holds iff table[j][j] >= table[j][p] and table[j][k] ==
    min(table[j][p], table[p][k]) for all k < j, making each entry the least weight on
    its path in the tree of edges j -> p (Gower & Ross 1969).  Each of these conditions
    is one instance of the inequality, so the first that fails gives the triple.
    """
    for j in range(1, len(table)):
        row = table[j]
        top = max(row[:j])
        p = row.index(top)
        if row[j] < top:
            return (j, j, p)
        for k in range(j):
            via = min(top, table[p][k])
            if row[k] != via:
                return (j, k, p) if row[k] < via else (p, k, j)
    return None
