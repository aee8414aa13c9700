"""Words over the indexed alphabet: reduction, cancellation, metric.

A Letter is a pair (index, sign) with sign +1 or -1; a Word is a finite
ordered sequence of letters carrying a reduction certificate.  Free
reduction is a single left-to-right stack pass; the cancellation calculus
(complete / noncrossing / inverse-pairing involutions on positions) is kept
as an independent verification path so the two can cross-check.
Genuinely infinite words appear only through WordStream truncations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from .ordered_abelian import (
    TOP,
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    OMEGA,
    ParseError,
    check_index,
)

Letter = Tuple[AlphabetIndex, int]


def letter(idx: AlphabetIndex, sign: int = 1) -> Letter:
    check_index(idx)
    if sign not in (1, -1):
        raise BigFreeError(f"letter sign must be +1 or -1, got {sign!r}")
    return (idx, sign)


def inverse_letter(lt: Letter) -> Letter:
    return (lt[0], -lt[1])


def _is_reduced(letters: tuple) -> bool:
    return all(l2 != (l1[0], -l1[1]) for l1, l2 in zip(letters, letters[1:]))


class Word:
    """Finite word; ``reduced`` certifies no adjacent cancelling pair."""

    __slots__ = ("letters", "reduced", "_length")

    def __init__(self, letters: Iterable[Letter] = ()):
        lst = []
        for lt in letters:
            idx, sign = lt
            lst.append(letter(idx, sign))
        self.letters = tuple(lst)
        self.reduced = _is_reduced(self.letters)
        self._length = None

    @classmethod
    def _make(cls, letters: tuple, reduced: bool) -> "Word":
        w = object.__new__(cls)
        w.letters = letters
        w.reduced = reduced
        w._length = None
        return w

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return multiply(self, other)

    def __invert__(self):
        return inverse(self)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    def reduce(self) -> "Word":
        return reduce(self)


IDENTITY = Word._make((), True)


def _push(stack: list, letters: Iterable[Letter]) -> list:
    """Append letters to a reduced stack, cancelling each adjacent inverse pair."""
    for idx, sign in letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return stack


def reduce(w: Word) -> Word:
    """The unique reduced representative (single stack pass, idempotent)."""
    if w.reduced:
        return w
    return Word._make(tuple(_push([], w.letters)), True)


def multiply(w: Word, v: Word) -> Word:
    """Reduced form of the concatenation."""
    stack = list(w.letters) if w.reduced else _push([], w.letters)
    return Word._make(tuple(_push(stack, v.letters)), True)


def inverse(w: Word) -> Word:
    """Reverse the order and flip every sign."""
    out = Word._make(tuple((idx, -sign) for idx, sign in reversed(w.letters)), w.reduced)
    if w.reduced:
        out._length = w._length  # inverse-symmetric
    return out


def length_vector(w: Word) -> LexVector:
    """Occurrences of each generator (either sign) in the reduced form.

    Cached on the immutable word.
    """
    if w._length is not None:
        return w._length
    r = reduce(w)
    if r._length is None:
        r._length = _count_vector(r.letters, 1)
    w._length = r._length
    return r._length


def _count_vector(letters: tuple, weight: int) -> LexVector:
    """``weight`` times the number of letters of each generator."""
    counts: dict = {}
    for idx, _ in letters:
        counts[idx] = counts.get(idx, 0) + weight
    return LexVector._make(tuple(sorted(counts.items())))


def _prefix_len(a: tuple, b: tuple) -> int:
    """Number of leading letters the two letter tuples share."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def word_dist(w: Word, v: Word) -> LexVector:
    """Length vector of the reduced form of w^-1 v, by a prefix scan.

    For reduced words w^-1 v reduces to the inverse of w's suffix past the
    common prefix followed by v's suffix, so this counts the letters of both
    suffixes, with no product and no inverse.  The product route
    ``L(w^-1 v)`` is kept only as an oracle.
    """
    w, v = reduce(w), reduce(v)
    k = _prefix_len(w.letters, v.letters)
    return _count_vector(w.letters[k:] + v.letters[k:], 1)


def gromov(g: Word, h: Word) -> LexVector:
    """Gromov product at the identity, by a prefix scan.

    For reduced words c(g, h) = (L(g) + L(h) - L(g^-1 h)) / 2 is the length
    vector of the longest common prefix, so this reduces both arguments and
    counts the letters of that prefix: integral by construction, with no
    product, no inverse and no halving.  The definitional formula is kept
    only as an oracle (the ``words/gromov-equals-prefix`` suite property,
    and ``check_length_axioms`` for arbitrary length functions).
    """
    g, h = reduce(g), reduce(h)
    return _count_vector(g.letters[:_prefix_len(g.letters, h.letters)], 1)


def double_gromov(g: Word, h: Word) -> LexVector:
    """2 c(g, h): the prefix count of ``gromov``, doubled.

    Kept for oracles and benchmarks that compare against the definitional
    L(g) + L(h) - L(g^-1 h); library code uses ``gromov``.
    """
    return gromov(g, h).double()


def _require_reduced(w: Word, what: str) -> None:
    if not w.reduced:
        raise BigFreeError(f"{what} must be reduced")


def common_prefix(g: Word, h: Word) -> Word:
    """Longest common initial segment of two reduced words."""
    _require_reduced(g, "common_prefix arguments")
    _require_reduced(h, "common_prefix arguments")
    return Word._make(g.letters[:_prefix_len(g.letters, h.letters)], True)


def is_subword(v: Word, w: Word) -> bool:
    """True iff v is an initial segment of w; for reduced words, iff L(v) + L(v^-1 w) = L(w)."""
    _require_reduced(v, "is_subword arguments")
    _require_reduced(w, "is_subword arguments")
    return w.letters[:len(v.letters)] == v.letters


def subwords(w: Word) -> list:
    """All initial segments of a reduced word, in increasing order."""
    _require_reduced(w, "subwords argument")
    return [Word._make(w.letters[:i], True) for i in range(len(w.letters) + 1)]


# -- cancellation calculus ---------------------------------------------------

class Cancellation:
    """Fixed-point-free involution on a set of 1-based word positions."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()):
        canon = []
        seen: set = set()
        for i, j in pairs:
            if not (isinstance(i, int) and isinstance(j, int)) or i < 1 or j < 1:
                raise BigFreeError(f"positions must be integers >= 1, got {(i, j)!r}")
            if i == j:
                raise BigFreeError(f"pairing must be fixed-point-free, got {i}-{j}")
            lo, hi = (i, j) if i < j else (j, i)
            for p in (lo, hi):
                if p in seen:
                    raise BigFreeError(f"position {p} occurs in more than one pair")
                seen.add(p)
            canon.append((lo, hi))
        canon.sort()
        self.pairs = tuple(canon)

    def partner_map(self) -> dict:
        out = {}
        for i, j in self.pairs:
            out[i] = j
            out[j] = i
        return out

    def domain(self) -> frozenset:
        return frozenset(p for pair in self.pairs for p in pair)

    def __eq__(self, other):
        if not isinstance(other, Cancellation):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Cancellation({format_cancellation(self)!r})"


@dataclass(frozen=True)
class CancellationCheck:
    """Outcome of verify_cancellation; reason names the first violated condition."""

    ok: bool
    reason: Optional[str] = None  # "complete" | "noncrossing" | "inverse-pairing"
    position: Optional[int] = None
    detail: str = ""

    def __bool__(self):
        return self.ok


class InvalidCancellationError(BigFreeError):
    def __init__(self, check: CancellationCheck):
        super().__init__(f"invalid cancellation: {check.reason} at position {check.position} {check.detail}")
        self.check = check


def verify_cancellation(w: Word, c: Cancellation) -> CancellationCheck:
    """Check completeness, noncrossing and inverse pairing, per position.

    Positions outside the word are an error, not a violation report.
    """
    n = len(w.letters)
    partner = c.partner_map()
    for p in partner:
        if p > n:
            raise BigFreeError(f"position {p} out of range for a word of length {n}")
    for t in sorted(partner):
        u = partner[t]
        lo, hi = (t, u) if t < u else (u, t)
        span = range(lo, hi + 1)
        for s in span:
            if s not in partner:
                return CancellationCheck(
                    False, "complete", t,
                    f"position {s} in [{lo},{hi}] is unpaired")
        mapped = {partner[s] for s in span}
        if mapped != set(span):
            return CancellationCheck(
                False, "noncrossing", t,
                f"([{lo},{hi}]_T)* = {sorted(mapped)} != {list(span)}")
        if w.letters[u - 1] != inverse_letter(w.letters[t - 1]):
            return CancellationCheck(
                False, "inverse-pairing", t,
                f"w({u}) is not the inverse of w({t})")
    return CancellationCheck(True)


def apply_cancellation(w: Word, c: Cancellation) -> Word:
    """Restriction of w to the unpaired positions, order preserved."""
    check = verify_cancellation(w, c)
    if not check.ok:
        raise InvalidCancellationError(check)
    dom = c.domain()
    letters = tuple(lt for p, lt in enumerate(w.letters, start=1) if p not in dom)
    return Word._make(letters, _is_reduced(letters))


def parse_cancellation(text: str) -> Cancellation:
    """Comma-separated ``i-j`` position pairs; empty string = empty pairing."""
    text = text.strip()
    if not text:
        return Cancellation()
    pairs = []
    for chunk in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*-\s*(\d+)\s*", chunk)
        if not m:
            raise ParseError(f"bad cancellation pair {chunk!r} (want i-j)")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return Cancellation(pairs)


def format_cancellation(c: Cancellation) -> str:
    return ",".join(f"{i}-{j}" for i, j in c.pairs)


# -- text form ----------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
_LETTER_NAME = r"(?:a([1-9][0-9]*)|b)"
_WORD_TOKEN = re.compile(_LETTER_NAME + r"(?:\^(-?[0-9]+))?")
_LETTER_TOKEN = re.compile(_LETTER_NAME + r"(?:\^(-?1))?")


def letter_name(idx: AlphabetIndex) -> str:
    """Text name of a generator: ``a<k>``, or ``b`` for the TOP letter."""
    return "b" if idx is TOP else f"a{idx}"


def parse_letter_token(token: str, alphabet: Alphabet) -> Tuple[AlphabetIndex, int]:
    """Parse ``a<k>``/``b`` with optional ``^1``/``^-1``."""
    m = _LETTER_TOKEN.fullmatch(token.strip())
    if not m:
        raise ParseError(f"bad letter token {token!r}")
    idx: AlphabetIndex = TOP if m.group(1) is None else int(m.group(1))
    alphabet.check_index(idx)
    sign = 1 if m.group(2) is None else int(m.group(2))
    return idx, sign


def parse_word(text: str, alphabet: Alphabet = OMEGA) -> Word:
    """Parse ``a<k>``/``a<k>^<e>`` tokens (``b`` = TOP letter); no reduction."""
    letters = []
    for m in _TOKEN.finditer(text):
        token = m.group(0)
        tm = _WORD_TOKEN.fullmatch(token)
        if not tm:
            raise ParseError(f"bad token {token!r} at position {m.start() + 1}")
        idx: AlphabetIndex = TOP if tm.group(1) is None else int(tm.group(1))
        alphabet.check_index(idx)
        exp = 1 if tm.group(2) is None else int(tm.group(2))
        if exp == 0:
            raise ParseError(f"zero exponent in token {token!r} at position {m.start() + 1}")
        sign = 1 if exp > 0 else -1
        letters.extend((idx, sign) for _ in range(abs(exp)))
    letters = tuple(letters)
    return Word._make(letters, _is_reduced(letters))  # the token grammar and alphabet checked each letter


def format_word(w: Word) -> str:
    """Canonical text: maximal runs of one signed letter collapse to a power."""
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        idx, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (idx, sign):
            j += 1
        name = letter_name(idx)
        exp = (j - i) * sign
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


# -- streams ------------------------------------------------------------------

@dataclass(frozen=True)
class WordStream:
    """Letter rule on positions 1,2,3,... read forward or in reverse."""

    rule: Callable[[int], Letter]
    orientation: str = "forward"  # or "reverse"

    def __post_init__(self):
        if self.orientation not in ("forward", "reverse"):
            raise BigFreeError(f"orientation must be forward or reverse, got {self.orientation!r}")


def truncate(stream: WordStream, k: int) -> Word:
    """First k letters under the stream's orientation."""
    if k < 0:
        raise BigFreeError("truncation depth must be >= 0")
    positions = range(1, k + 1) if stream.orientation == "forward" else range(k, 0, -1)
    return Word(stream.rule(i) for i in positions)


def harmonic_stream() -> WordStream:
    """a1 a2 a3 ... read forward."""
    return WordStream(lambda k: (k, 1), "forward")


def reversed_harmonic_stream() -> WordStream:
    """... a3 a2 a1: truncation at depth k is a_k ... a2 a1."""
    return WordStream(lambda k: (k, 1), "reverse")
