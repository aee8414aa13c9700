"""Exact lexicographically ordered vectors over a well-ordered index set.

The index set is either the natural ranks 1, 2, 3, ... (the omega instance)
or the ranks plus one distinguished index TOP sitting above all of them (the
omega+1 instance).  A LexVector is a finitely supported map from indices to
exact coordinates (int, or Fraction for the rational variant), compared by
the first differing coordinate.  All values are immutable and all operations
are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union


class BigFreeError(ValueError):
    """Base class for domain errors raised by this package."""


class HalfError(BigFreeError):
    """Exact halving failed: some integer coordinate is odd."""


class ParseError(BigFreeError):
    """Malformed text form."""


class ResourceLimitError(BigFreeError):
    """A finite construction would exceed its configured cap."""


class _Top:
    """The distinguished index above every natural rank.

    A singleton; comparisons against ints go through the reflected
    operators, so sorting mixed index lists works.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


TOP = _Top()

AlphabetIndex = Union[int, _Top]
Coord = Union[int, Fraction]


def check_index(idx: AlphabetIndex) -> None:
    """Reject anything that is not a rank >= 1 or TOP."""
    if idx is TOP:
        return
    if isinstance(idx, int) and not isinstance(idx, bool) and idx >= 1:
        return
    raise BigFreeError(f"invalid alphabet index {idx!r}")


class Alphabet(NamedTuple):
    """Index-set instance: ranks 1,2,3,... with or without the TOP letter."""

    has_top: bool
    name: str

    def check_index(self, idx: AlphabetIndex) -> None:
        check_index(idx)
        if idx is TOP and not self.has_top:
            raise BigFreeError("TOP letter is not part of the omega alphabet")


OMEGA = Alphabet(False, "omega")
OMEGA_PLUS_ONE = Alphabet(True, "omega+1")

_ALPHABETS = {"omega": OMEGA, "omega+1": OMEGA_PLUS_ONE}


def alphabet_by_name(name: str) -> Alphabet:
    try:
        return _ALPHABETS[name]
    except KeyError:
        raise ParseError(f"unknown alphabet {name!r} (use omega or omega+1)") from None


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
        cleaned.sort(key=lambda pair: (pair[0] is TOP, pair[0] if pair[0] is not TOP else 0))
        for (i1, _), (i2, _) in zip(cleaned, cleaned[1:]):
            if i1 == i2:
                raise BigFreeError(f"duplicate index {i1!r}")
        self.entries = tuple(cleaned)

    @classmethod
    def _make(cls, entries: tuple) -> "LexVector":
        vec = object.__new__(cls)
        vec.entries = entries
        return vec

    @classmethod
    def from_coords(cls, coords: Iterable[Coord], top: Coord = 0) -> "LexVector":
        """Build from positional coordinates starting at rank 1."""
        entries = [(i, c) for i, c in enumerate(coords, start=1)]
        entries.append((TOP, top))
        return cls(entries)

    @classmethod
    def unit(cls, idx: AlphabetIndex, value: Coord = 1) -> "LexVector":
        check_index(idx)
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
        """-1, 0 or 1 by the first differing coordinate.

        Both vectors must live over the same index-set instance; that is a
        caller obligation (a configuration error otherwise) and is enforced
        at the parsing boundary.
        """
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
        a, b = self.entries, other.entries
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ia, va = a[i]
            ib, vb = b[j]
            if ia == ib:
                s = va + vb
                if s != 0:
                    out.append((ia, s if type(s) is int else _norm_coord(s)))
                i += 1
                j += 1
            elif ia < ib:
                out.append((ia, va))
                i += 1
            else:
                out.append((ib, vb))
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return LexVector._make(tuple(out))

    def __neg__(self) -> "LexVector":
        return LexVector._make(tuple((i, -v) for i, v in self.entries))

    def __sub__(self, other: "LexVector") -> "LexVector":
        return self + (-other)

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


def half_exact(x: LexVector) -> LexVector:
    """x/2 when every integer coordinate is even, else HalfError.

    Callers certifying membership of a Gromov product in the integer
    lattice must route through this.
    """
    out = []
    for idx, v in x.entries:
        if not isinstance(v, int):
            raise HalfError(f"coordinate at {idx!r} is not an integer: {v}")
        if v % 2:
            raise HalfError(f"odd coordinate {v} at index {idx!r}")
        out.append((idx, v // 2))
    return LexVector._make(tuple(out))


def _format_coord(value: Coord) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def format_vector(x: LexVector) -> str:
    """Text form ``[c1,c2,...]`` (trailing zeros trimmed), ``;TOP=c`` suffix."""
    naturals = [(i, v) for i, v in x.entries if i is not TOP]
    top = x.get(TOP)
    parts = ""
    if naturals:
        last = naturals[-1][0]
        coords = {i: v for i, v in naturals}
        parts = ",".join(_format_coord(coords.get(i, 0)) for i in range(1, last + 1))
    suffix = f";TOP={_format_coord(top)}" if top != 0 else ""
    return f"[{parts}{suffix}]"


def _parse_coord(text: str, where: str) -> Coord:
    text = text.strip()
    if not text:
        raise ParseError(f"empty coordinate in {where}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"bad coordinate {text!r} in {where} (want an integer or p/q with q nonzero)") from None


def parse_vector(text: str, alphabet: Alphabet = OMEGA) -> LexVector:
    """Parse the ``[c1,c2,...;TOP=c]`` form."""
    raw = text.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ParseError(f"vector must be bracketed: {text!r}")
    inner = raw[1:-1].strip()
    entries = []
    coord_part, _, rest = inner.partition(";")
    if coord_part.strip():
        for i, token in enumerate(coord_part.split(","), start=1):
            entries.append((i, _parse_coord(token, text)))
    if rest:
        if not rest.startswith("TOP="):
            raise ParseError(f"expected TOP=<c> after ';' in {text!r}")
        alphabet.check_index(TOP)
        entries.append((TOP, _parse_coord(rest[len("TOP="):], text)))
    return LexVector(entries)
