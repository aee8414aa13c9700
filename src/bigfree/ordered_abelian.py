"""Exact lexicographically ordered vectors over a well-ordered index set.

The index set is omega+1, as far as text can name it: the ranks 1, 2, ...,
MAX_WORD_LETTERS, then one index TOP above all of them.  TOP is a plain int,
the one rank reserved past the cap, so every index is an int from 1 to TOP
and ``check_index`` is its one gate.  The omega instance is the vectors
whose TOP coordinate is 0, so it needs no index set of its own.  A
LexVector is a finitely supported map from indices to exact coordinates
(int, or Fraction for the rational variant), compared by the first
differing coordinate.  All values are immutable and all operations
are pure.  ``read_number`` reads every number a user types, in every grammar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union


class BigFreeError(ValueError):
    """Base class for domain errors raised by this package."""


class HalfError(BigFreeError):
    """Exact halving failed: some integer coordinate is odd."""


class ParseError(BigFreeError):
    """Malformed text form."""


class ResourceLimitError(BigFreeError):
    """A finite construction would exceed its configured cap."""


# The text layer's cap, both ways: the highest letter rank a word or a vector is read or written
# with, and the most letters parse_word reads, or subwords, top_edge_instability and ball_graph
# build in all.
MAX_WORD_LETTERS = 1_000_000

TOP = MAX_WORD_LETTERS + 1  # the one index above every rank a word or a vector may hold

AlphabetIndex = int
Coord = Union[int, Fraction]


def check_index(idx: AlphabetIndex) -> None:
    """The one gate of an index: an int from 1 to TOP.

    Anything else is a BigFreeError; an int above TOP is a ResourceLimitError,
    whose message does not echo the rank (it may be too long to print).
    """
    if type(idx) is not int or idx < 1:
        raise BigFreeError(f"invalid alphabet index {_format_coord(idx)}")
    if idx > TOP:
        raise ResourceLimitError(f"letter rank must be at most {MAX_WORD_LETTERS}")


def check_int(n, what: str) -> None:
    """The one type gate of a count or a bound: an int, not a bool; ``what`` names it."""
    if type(n) is not int:
        raise BigFreeError(f"{what} must be an int, got {type(n).__name__}")


def index_name(idx: AlphabetIndex) -> str:
    """An index as messages print it: its rank, or ``TOP``."""
    return "TOP" if idx == TOP else str(idx)


def _norm_coord(value: Coord) -> Coord:
    if isinstance(value, bool):
        raise BigFreeError("coordinates must be int or Fraction, not bool")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise BigFreeError(f"coordinates must be exact (int or Fraction), got {type(value).__name__}")


class LexVector:
    """Finitely supported vector, ordered by the first differing coordinate.

    Canonical form: zero coordinates are never stored and whole-number
    Fractions are stored as ints, so structural equality is value equality.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Union[Mapping, Iterable] = ()):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        cleaned = []
        for idx, value in items:
            check_index(idx)
            value = _norm_coord(value)
            if value != 0:
                cleaned.append((idx, value))
        cleaned.sort()  # by index: TOP sorts last
        for (i1, _), (i2, _) in zip(cleaned, cleaned[1:]):
            if i1 == i2:
                raise BigFreeError(f"duplicate index {index_name(i1)}")
        self.entries = tuple(cleaned)

    @classmethod
    def _make(cls, entries: tuple) -> "LexVector":
        vec = object.__new__(cls)
        vec.entries = entries
        return vec

    @classmethod
    def unit(cls, idx: AlphabetIndex, value: Coord = 1) -> "LexVector":
        check_index(idx)
        if type(value) is not int:
            value = _norm_coord(value)
        return cls._make(((idx, value),)) if value else ZERO

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, idx: AlphabetIndex) -> Coord:
        for i, v in self.entries:
            if i == idx:
                return v
        return 0

    def support(self) -> tuple:
        return tuple(i for i, _ in self.entries)

    def sign(self) -> int:
        """Sign of the coordinate at the least nonzero index (0 for zero)."""
        if not self.entries:
            return 0
        return 1 if self.entries[0][1] > 0 else -1

    def compare(self, other: "LexVector") -> int:
        """-1, 0 or 1 by the first differing coordinate."""
        a, b = self.entries, other.entries
        i = j = 0
        while i < len(a) and j < len(b):
            ia, va = a[i]
            ib, vb = b[j]
            if ia == ib:
                if va != vb:
                    return -1 if va < vb else 1
                i += 1
                j += 1
            elif ia < ib:
                return 1 if va > 0 else -1
            else:
                return -1 if vb > 0 else 1
        if i < len(a):
            return 1 if a[i][1] > 0 else -1
        if j < len(b):
            return -1 if b[j][1] > 0 else 1
        return 0

    def __eq__(self, other):
        if not isinstance(other, LexVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __add__(self, other: "LexVector") -> "LexVector":
        return _merge(self.entries, other.entries, False)

    def __neg__(self) -> "LexVector":
        return LexVector._make(tuple((i, -v) for i, v in self.entries))

    def __sub__(self, other: "LexVector") -> "LexVector":
        return _merge(self.entries, other.entries, True)

    def __abs__(self) -> "LexVector":
        return -self if self.sign() < 0 else self

    def scale(self, factor: Coord) -> "LexVector":
        if factor == 0:
            return ZERO
        return LexVector._make(tuple((i, _norm_coord(v * factor)) for i, v in self.entries))

    def double(self) -> "LexVector":
        return self + self  # __add__ already stores whole Fractions as ints

    def __str__(self):
        return format_vector(self)

    def __repr__(self):
        return f"LexVector({format_vector(self)!r})"


ZERO = LexVector._make(())


def _merge(a: tuple, b: tuple, subtract: bool) -> LexVector:
    """a + b, or a - b when ``subtract``: one pass over the two sorted entry tuples."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, va = a[i]
        ib, vb = b[j]
        if ia == ib:
            s = va - vb if subtract else va + vb
            if s != 0:
                out.append((ia, s if type(s) is int else _norm_coord(s)))
            i += 1
            j += 1
        elif ia < ib:
            out.append((ia, va))
            i += 1
        else:
            out.append((ib, -vb if subtract else vb))
            j += 1
    out.extend(a[i:])
    out.extend(((ib, -vb) for ib, vb in b[j:]) if subtract else b[j:])
    return LexVector._make(tuple(out))


def half_exact(x: LexVector) -> LexVector:
    """x/2 when every integer coordinate is even, else HalfError.

    Callers certifying membership of a Gromov product in the integer
    lattice must route through this.
    """
    out = []
    for idx, v in x.entries:
        if not isinstance(v, int):
            raise HalfError(f"coordinate at {index_name(idx)} is not an integer: {_format_coord(v)}")
        if v % 2:
            raise HalfError(f"odd coordinate {_format_coord(v)} at index {index_name(idx)}")
        out.append((idx, v // 2))
    return LexVector._make(tuple(out))


def _format_coord(value) -> str:
    """``str(value)``, the one place a number becomes text: an int with more digits than the
    interpreter writes (4,300 by default) is a ResourceLimitError that does not echo them."""
    try:
        return str(value)  # a stored Fraction is never whole, so this is its p/q
    except ValueError:
        raise ResourceLimitError("number too long to print") from None


def format_vector(x: LexVector) -> str:
    """Text form ``[c1,c2,...]`` (trailing zeros trimmed), ``;TOP=c`` suffix.

    The text has one coordinate per rank up to the largest; check_index keeps
    every rank of a vector at most MAX_WORD_LETTERS, below TOP.
    """
    coords = dict(x.entries)
    top = coords.pop(TOP, 0)
    parts = ",".join(_format_coord(coords.get(i, 0)) for i in range(1, max(coords, default=0) + 1))
    suffix = f";TOP={_format_coord(top)}" if top else ""
    return f"[{parts}{suffix}]"


def read_number(text: str, fraction: bool = False) -> Coord:
    """The one reader of a typed number: ASCII digits with an optional ``-``
    and, where ``fraction`` allows it, ``p/q`` with q unsigned and nonzero.

    Any other text is a ParseError, which each grammar words as its own.
    More digits than ``int()`` converts (4,300 by default) is a
    ResourceLimitError, "number too long", and the digits are not echoed.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # the only int() failure left once the digits are checked
            raise ResourceLimitError(f"number too long: {len(text)} characters") from None
    p, slash, q = text.partition("/")
    if fraction and slash and q.isdigit():
        denominator = read_number(q)
        if denominator:
            return Fraction(read_number(p), denominator)
    raise ParseError(f"bad number {text!r}")


def _parse_coord(text: str, where: str) -> Coord:
    text = text.strip()
    try:
        return read_number(text, fraction=True)
    except ParseError:
        raise ParseError(
            f"bad coordinate {text!r} in {where} (want an integer or p/q with q nonzero)") from None


def parse_vector(text: str) -> LexVector:
    """Parse the ``[c1,c2,...;TOP=c]`` form.

    More than MAX_WORD_LETTERS natural coordinates is a ResourceLimitError,
    raised before any coordinate is read: the next rank would be TOP's.
    """
    raw = text.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ParseError(f"vector must be bracketed: {text!r}")
    inner = raw[1:-1].strip()
    entries = []
    coord_part, _, rest = inner.partition(";")
    if coord_part.strip():
        if coord_part.count(",") >= MAX_WORD_LETTERS:
            raise ResourceLimitError(f"letter rank must be at most {MAX_WORD_LETTERS}")
        for i, token in enumerate(coord_part.split(","), start=1):
            entries.append((i, _parse_coord(token, text)))
    if rest:
        if not rest.startswith("TOP="):
            raise ParseError(f"expected TOP=<c> after ';' in {text!r}")
        entries.append((TOP, _parse_coord(rest[len("TOP="):], text)))
    return LexVector(entries)
