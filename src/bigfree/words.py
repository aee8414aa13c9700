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
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple

from .ordered_abelian import (
    TOP,
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    OMEGA,
    ParseError,
    ResourceLimitError,
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


def reduce(w: Word) -> Word:
    """The unique reduced representative (single stack pass, idempotent)."""
    if w.reduced:
        return w
    stack: list = []
    for idx, sign in w.letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return Word._make(tuple(stack), True)


def _cancel_len(a: tuple, b: tuple) -> int:
    """Number of letters at the end of ``a`` that cancel against the start of ``b``."""
    k = 0
    for x, (idx, sign) in zip(reversed(a), b):
        if x != (idx, -sign):
            break
        k += 1
    return k


def _junction(a: tuple, b: tuple) -> Tuple[int, tuple]:
    """The k letters of reduced ``a`` that cancel against reduced ``b``, and the reduced join.

    Only the last letters of a can cancel against the first letters of b;
    the join drops those k letters from each side and keeps the rest.
    """
    k = _cancel_len(a, b)
    return k, a[:len(a) - k] + b[k:]


def multiply(w: Word, v: Word) -> Word:
    """Reduced form of the concatenation: both factors reduced, then joined at the junction."""
    a, b = reduce(w).letters, reduce(v).letters
    if not a or not b or a[-1] != (b[0][0], -b[0][1]):
        return Word._make(a + b, True)  # nothing cancels: the common case for one-letter factors
    return Word._make(_junction(a, b)[1], True)


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
        r._length = _count_vector(r.letters)
    w._length = r._length
    return r._length


def _count_vector(letters: tuple) -> LexVector:
    """The number of letters of each generator."""
    counts: dict = {}
    for idx, _ in letters:
        counts[idx] = counts.get(idx, 0) + 1
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
    return _count_vector(w.letters[k:] + v.letters[k:])


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
    return _count_vector(g.letters[:_prefix_len(g.letters, h.letters)])


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
    """All initial segments of a reduced word, in increasing order.

    Raises ResourceLimitError when their n(n+1)/2 letters would pass MAX_WORD_LETTERS.
    """
    _require_reduced(w, "subwords argument")
    n = len(w.letters)
    if n * (n + 1) // 2 > MAX_WORD_LETTERS:
        raise ResourceLimitError(f"subwords would exceed {MAX_WORD_LETTERS} letters in all")
    return [Word._make(w.letters[:i], True) for i in range(n + 1)]


def reduced_word_counts(max_len: int, max_index: int) -> Iterator[int]:
    """How many reduced words over the first max_index generators have each
    length 0, 1, ..., max_len, counted without building any; the counts
    stop at the first length that has none."""
    count = 1
    for length in range(max_len + 1):
        yield count
        count = 2 * max_index if length == 0 else count * (2 * max_index - 1)
        if count <= 0:
            return


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


class CancellationCheck(NamedTuple):
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
    """Check completeness, noncrossing and inverse pairing; report the first
    pair, in the order of ``c.pairs``, that fails one.

    Positions outside the word are an error, not a violation report.  One
    pass over the sorted pair ends flags every failing pair but those
    crossed only by a pair with a smaller lower end, which itself fails
    first; the first flagged pair is then scanned for its report.
    """
    n = len(w.letters)
    partner = c.partner_map()
    for p in partner:
        if p > n:
            raise BigFreeError(f"position {p} out of range for a word of length {n}")
    ends = sorted(partner)
    rank = {p: r for r, p in enumerate(ends)}
    crossed = set()  # lower ends of pairs crossed by a pair that opens inside them
    stack = []  # open lower ends; a crossed one stays until the ends above it are gone
    for p in ends:
        q = partner[p]
        if q > p:
            stack.append(p)
            continue
        while stack[-1] in crossed:
            stack.pop()
        if stack[-1] == q:
            stack.pop()
        else:
            crossed.add(q)
    letters = w.letters
    for lo, hi in c.pairs:
        # the span is complete exactly when all hi - lo + 1 of its positions are ends
        if (rank[hi] - rank[lo] == hi - lo and lo not in crossed
                and letters[hi - 1] == inverse_letter(letters[lo - 1])):
            continue
        span = range(lo, hi + 1)
        for s in span:
            if s not in partner:
                return CancellationCheck(
                    False, "complete", lo,
                    f"position {s} in [{lo},{hi}] is unpaired")
        mapped = {partner[s] for s in span}
        if mapped != set(span):
            return CancellationCheck(
                False, "noncrossing", lo,
                f"([{lo},{hi}]_T)* = {sorted(mapped)} != {list(span)}")
        return CancellationCheck(
            False, "inverse-pairing", lo,
            f"w({hi}) is not the inverse of w({lo})")
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
        try:
            pairs.append((int(m.group(1)), int(m.group(2))))
        except ValueError:  # more digits than int() converts
            raise ParseError("number too long in cancellation pair") from None
    return Cancellation(pairs)


def format_cancellation(c: Cancellation) -> str:
    return ",".join(f"{i}-{j}" for i, j in c.pairs)


# -- text form ----------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
_LETTER_NAME = r"(?:a([1-9][0-9]*)|b)"
_WORD_TOKEN = re.compile(_LETTER_NAME + r"(?:\^(-?[0-9]+))?")
_LETTER_TOKEN = re.compile(_LETTER_NAME + r"(?:\^(-?1))?")
MAX_WORD_LETTERS = 1_000_000  # most letters parse_word reads, or subwords, top_edge_instability and ball_graph build in all


def letter_name(idx: AlphabetIndex) -> str:
    """Text name of a generator: ``a<k>``, or ``b`` for the TOP letter."""
    return "b" if idx is TOP else f"a{idx}"


def parse_letter_token(token: str, alphabet: Alphabet) -> Tuple[AlphabetIndex, int]:
    """Parse ``a<k>``/``b`` with optional ``^1``/``^-1``."""
    m = _LETTER_TOKEN.fullmatch(token.strip())
    if not m:
        raise ParseError(f"bad letter token {token!r}")
    try:
        idx: AlphabetIndex = TOP if m.group(1) is None else int(m.group(1))
    except ValueError:  # more digits than int() converts
        raise ParseError("number too long in letter token") from None
    alphabet.check_index(idx)
    sign = 1 if m.group(2) is None else int(m.group(2))
    return idx, sign


def parse_word(text: str, alphabet: Alphabet = OMEGA) -> Word:
    """Parse ``a<k>``/``a<k>^<e>`` tokens (``b`` = TOP letter); no reduction.

    Raises ResourceLimitError before the word would pass MAX_WORD_LETTERS.
    """
    letters = []
    for m in _TOKEN.finditer(text):
        tm = _WORD_TOKEN.fullmatch(m.group())
        if tm is None:
            raise ParseError(f"bad token {m.group()!r} at position {m.start() + 1}")
        k, e = tm.groups()
        if k is None:
            alphabet.check_index(TOP)
        try:
            idx: AlphabetIndex = TOP if k is None else int(k)  # the token grammar admits only ranks >= 1
            exp = 1 if e is None else int(e)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"number too long in token at position {m.start() + 1}") from None
        if exp == 0:
            raise ParseError(f"zero exponent in token {m.group()!r} at position {m.start() + 1}")
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise ResourceLimitError(f"word would exceed {MAX_WORD_LETTERS} letters")
        letters += [(idx, 1 if exp > 0 else -1)] * abs(exp)
    letters = tuple(letters)
    return Word._make(letters, _is_reduced(letters))  # the token grammar and alphabet checked each letter


def format_word(w: Word) -> str:
    """Canonical text: maximal runs of one signed letter collapse to a power."""
    parts = []
    run, n = None, 0
    for lt in w.letters + (None,):  # the None closes the last run
        if lt == run:
            n += 1
            continue
        if n:
            idx, sign = run
            name = "b" if idx is TOP else f"a{idx}"  # letter_name, inlined to save a call per run
            exp = n * sign
            parts.append(name if exp == 1 else f"{name}^{exp}")
        run, n = lt, 1
    return " ".join(parts)


# -- streams ------------------------------------------------------------------

class WordStream:
    """Letter rule on positions 1,2,3,... read forward or in reverse."""

    __slots__ = ("rule", "orientation")

    def __init__(self, rule: Callable[[int], Letter], orientation: str = "forward"):
        if orientation not in ("forward", "reverse"):
            raise BigFreeError(f"orientation must be forward or reverse, got {orientation!r}")
        self.rule = rule
        self.orientation = orientation


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
