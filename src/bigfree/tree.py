"""Tree points <n, g>, the tree metric, the isometric action, length axioms.

A point is an offset n with [] <= n <= L(g) along the interval toward the
group element g; two points are the same point of the tree iff they carry
the same offset and it does not exceed the Gromov product of their words.
That product c(g, h) is the length vector of the common prefix, so it is
integral and is compared against offsets as it is; only the metric and the
far branch of the action double a vector.

``EdgePoint`` is the one model of a point inside the edge from w to w a^p:
the tree puts a lattice offset there (the paper's Z^c interval), the Cayley
graph a rational one (its R interval); action, text form and distance are shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
    common_prefix,
    format_word,
    gromov,
    inverse,
    length_vector,
    letter_name,
    multiply,
    parse_letter_token,
    parse_word,
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
    """Distance n + m - 2 min{n, m, c(g, h)} of the points at n on [1, g] and m on [1, h]."""
    return n + m - min(n, m, gromov(g, h)).double()


def tree_dist(p: TreePoint, q: TreePoint) -> LexVector:
    """The tree metric on two points."""
    return interval_dist(p.n, p.g, q.n, q.g)


def tree_act(h: Word, p: TreePoint) -> TreePoint:
    """Move p to the point at the same offset along [h, h g]."""
    if not h.reduced:
        raise BigFreeError("acting word must be reduced")
    c = gromov(p.g, inverse(h))
    h_len = length_vector(h)
    if p.n <= c:
        return TreePoint(h_len - p.n, h)
    return TreePoint(h_len + p.n - c.double(), multiply(h, p.g))


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
    g = parse_word(word_part.strip(), alphabet)
    if not g.reduced:
        raise BigFreeError("tree point word must be reduced")
    return TreePoint(n, g)


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


def edge_point_dist(x, y) -> LexVector:
    """Exact distance between words or edge points of one model."""
    return interval_dist(position(x), direction_word(x), position(y), direction_word(y))


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

@dataclass(frozen=True)
class LengthOracle:
    """Group operations plus a candidate length map into the ordered group."""

    multiply: Callable
    inverse: Callable
    identity: object
    length: Callable


@dataclass(frozen=True)
class AxiomViolation:
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
    product even (so each c lies in the lattice).
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
    doubled: dict = {}
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
            doubled[(i, j)] = two_c

    def two_c(i: int, j: int) -> LexVector:
        return doubled[(i, j) if i <= j else (j, i)]

    for i in range(n):
        for j in range(i, n):
            base = doubled[(i, j)]
            for k in range(n):
                if base < min(two_c(i, k), two_c(j, k)):
                    return AxiomViolation(
                        "axiom3", (elems[i], elems[j], elems[k]),
                        f"c(g,h) = {base}/2 < min of {two_c(i, k)}/2, {two_c(j, k)}/2")
    return None
