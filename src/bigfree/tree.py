"""Tree points <n, g>, the tree metric, the isometric action, length axioms.

A point is an offset n with [] <= n <= L(g) along the interval toward the
group element g; two points are the same point of the tree iff they carry
the same offset and it does not exceed the Gromov product of their words.
Gromov products are handled as doubled integers internally and halved only
where a value must be certified to lie in the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .ordered_abelian import (
    Alphabet,
    BigFreeError,
    HalfError,
    LexVector,
    OMEGA,
    ParseError,
    ZERO,
    half_exact,
    parse_vector,
)
from .words import (
    IDENTITY,
    Word,
    common_prefix,
    double_gromov,
    format_word,
    inverse,
    length_vector,
    multiply,
    parse_word,
)


class TreePoint:
    """Offset/word pair; equality is the tree relation, so it is unhashable.

    Canonicalize through the edge-triple form before hashing or indexing.
    """

    __slots__ = ("n", "g", "word_length")

    def __init__(self, n: LexVector, g: Word):
        if not g.reduced:
            raise BigFreeError("tree point word must be reduced")
        glen = length_vector(g)
        if n < ZERO or n > glen:
            raise BigFreeError(f"offset {n} outside [0, {glen}]")
        self.n = n
        self.g = g
        self.word_length = glen

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
    if p.n != q.n:
        return False
    return p.n.double() <= double_gromov(p.g, q.g)


def tree_dist(p: TreePoint, q: TreePoint) -> LexVector:
    """n + m - 2 min{n, m, c(g, h)}, evaluated with doubled products."""
    doubled_min = min(p.n.double(), q.n.double(), double_gromov(p.g, q.g))
    return p.n + q.n - doubled_min


def tree_act(h: Word, p: TreePoint) -> TreePoint:
    """Move p to the point at the same offset along [h, h g]."""
    if not h.reduced:
        raise BigFreeError("acting word must be reduced")
    two_c = double_gromov(p.g, inverse(h))
    h_len = length_vector(h)
    if p.n.double() <= two_c:
        return TreePoint(h_len - p.n, h)
    return TreePoint(h_len + p.n - two_c, multiply(h, p.g))


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
