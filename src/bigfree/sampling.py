"""Seeded sample generators shared by the property suites and the tests.

Stream contract: every sample, and the generator state after it, is that of
the sampler's ``randint``/``choice`` formulation.  CPython (3.10-3.13) makes
``randint(a, b)`` as ``a + _randbelow(b - a + 1)`` and ``choice(s)`` as
``s[_randbelow(len(s))]``, and ``_randbelow(n)`` repeats ``getrandbits(k)``,
``k = n.bit_length()``, until the result is below ``n``.  Every bounded
draw runs that loop on ``rng.getrandbits``: ``_below``, inlined in the word
samplers, which make almost all draws; ``rng.random`` and ``rng.sample``
are called as such.  ``tests/test_sampling.py`` pins this.
An empty range raises ``ValueError``, as ``randint`` did, where
``_randbelow(0)`` would loop forever.
The exhaustive word list draws nothing: it is the identity's ball, the
vertices of ``cayley.ball_graph``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random
from typing import List, Optional, Tuple

from .cayley import CayleyPoint, GraphPoint, ball_graph
from .ordered_abelian import MAX_WORD_LETTERS, TOP, LexVector, ResourceLimitError, ZERO, _format_coord
from .tree import TreePoint
from .triples import EdgeTriple
from .words import IDENTITY, Cancellation, Word, _is_reduced, length_vector


def _check_ranges(max_len: int, max_index: int) -> None:
    if max_len < 0 or max_index < 1:
        raise ValueError(f"empty range: max_len={_format_coord(max_len)}, max_index={_format_coord(max_index)}")
    _check_rank_cap(max_index)


def _check_rank_cap(max_index: int) -> None:
    """Letters are built unchecked, so a rank past the text cap is refused before any draw."""
    if max_index > MAX_WORD_LETTERS:
        raise ResourceLimitError(f"letter rank must be at most {MAX_WORD_LETTERS}")


def _below(bits, n: int) -> int:
    """``_randbelow(n)`` drawn on ``bits``, the generator's ``getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_word(rng: Random, max_len: int, max_index: int) -> Word:
    """Uniform letters, cancellations allowed."""
    _check_ranges(max_len, max_index)
    bits = rng.getrandbits
    k = max_index.bit_length()
    letters = []
    for _ in range(_below(bits, max_len + 1)):
        index = bits(k)
        while index >= max_index:
            index = bits(k)
        sign = bits(2)  # choice((1, -1)): _randbelow(2) draws 2 bits
        while sign >= 2:
            sign = bits(2)
        letters.append((index + 1, -1 if sign else 1))
    word = tuple(letters)
    return Word._make(word, _is_reduced(word))


def random_reduced_word(rng: Random, max_len: int, max_index: int) -> Word:
    """Non-backtracking walk of uniform length."""
    _check_ranges(max_len, max_index)
    bits = rng.getrandbits
    k = max_index.bit_length()
    letters: List[tuple] = []
    inverse_of_last = None
    for _ in range(_below(bits, max_len + 1)):
        while True:
            index = bits(k)
            while index >= max_index:
                index = bits(k)
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            lt = (index + 1, -1 if sign else 1)
            if lt != inverse_of_last:
                break
        letters.append(lt)
        inverse_of_last = (lt[0], -lt[1])
    return Word._make(tuple(letters), True)


def random_cancellation(rng: Random, w: Word) -> Optional[Cancellation]:
    """A random valid cancellation of w, or None when w is reduced.

    Builds disjoint nested blocks: each starts from an adjacent cancelling
    pair and optionally grows outward while the flanking letters cancel.
    Always nonempty when any adjacent pair cancels.
    """
    letters = w.letters
    n = len(letters)
    used = [False] * n
    pairs: List[Tuple[int, int]] = []
    first = True
    i = 0
    while i < n - 1:
        a, b = letters[i], letters[i + 1]
        if not used[i] and not used[i + 1] and b == (a[0], -a[1]) and (first or rng.random() < 0.7):
            first = False
            lo, hi = i, i + 1
            used[lo] = used[hi] = True
            pairs.append((lo + 1, hi + 1))
            while (
                lo > 0 and hi < n - 1 and not used[lo - 1] and not used[hi + 1]
                and letters[hi + 1] == (letters[lo - 1][0], -letters[lo - 1][1])
                and rng.random() < 0.5
            ):
                lo -= 1
                hi += 1
                used[lo] = used[hi] = True
                pairs.append((lo + 1, hi + 1))
            i = hi + 1
        else:
            i += 1
    if not pairs:
        return None
    return Cancellation(pairs)


def random_offset_inside(rng: Random, index: int) -> LexVector:
    """A vector strictly between 0 and the unit at the rank index."""
    bits = rng.getrandbits
    j = min(index + 1 + _below(bits, 4), TOP)  # past the last rank, TOP is the next index
    c = 1 + _below(bits, 5)
    if rng.random() < 0.5:
        return LexVector.unit(j, c)
    return LexVector.unit(index) - LexVector.unit(j, c)


def random_tree_point(rng: Random, max_len: int = 12, max_index: int = 5) -> TreePoint:
    """A point on a random edge of the interval toward a random word."""
    g = random_reduced_word(rng, max_len, max_index)
    if not g.letters:
        return TreePoint._make(ZERO, g)
    cut = _below(rng.getrandbits, len(g.letters) + 1)
    base = length_vector(Word._make(g.letters[:cut], True))
    if cut == len(g.letters) or rng.random() < 0.3:
        return TreePoint._make(base, g)
    # below L(prefix + next letter) <= L(g): the offset is under the next letter's unit
    return TreePoint._make(base + random_offset_inside(rng, g.letters[cut][0]), g)


def _edge_letter(rng: Random, w: Word, max_index: int) -> Tuple[int, int]:
    """A signed letter that may follow the reduced word w (sign drawn first).

    With one generator the index is forced, so a sign that would undo w's
    last letter is flipped, with no draw; more generators redraw the index.
    """
    bits = rng.getrandbits
    sign = (1, -1)[_below(bits, 2)]
    if max_index == 1 and w.letters and w.letters[-1] == (1, -sign):
        sign = -sign
    while True:
        index = 1 + _below(bits, max_index)
        if not w.letters or w.letters[-1] != (index, -sign):
            return index, sign


def random_edge_triple(rng: Random, max_len: int = 10, max_index: int = 5) -> EdgeTriple:
    w = random_reduced_word(rng, max_len, max_index)
    index, sign = _edge_letter(rng, w, max_index)
    return EdgeTriple._make(w, index, sign, random_offset_inside(rng, index))


def random_cayley_point(rng: Random, max_len: int = 10, max_index: int = 5) -> GraphPoint:
    w = random_reduced_word(rng, max_len, max_index)
    if rng.random() < 0.25:
        return w
    index, sign = _edge_letter(rng, w, max_index)
    bits = rng.getrandbits
    den = 2 + _below(bits, 11)
    return CayleyPoint._make(w, index, sign, Fraction(1 + _below(bits, den - 1), den))  # 0 < t < 1


def random_small_vector(rng: Random, max_index: int = 4, bound: int = 2) -> LexVector:
    if max_index < 0 or bound < 0:
        raise ValueError(f"empty range: max_index={_format_coord(max_index)}, bound={_format_coord(bound)}")
    _check_rank_cap(max_index)
    bits = rng.getrandbits
    support = rng.sample(range(1, max_index + 1), _below(bits, min(3, max_index) + 1))
    entries = [(i, _below(bits, 2 * bound + 1) - bound) for i in support]  # drawn in support order
    return LexVector._make(tuple(sorted(e for e in entries if e[1])))


def enumerate_reduced_words(max_len: int, max_index: int) -> List[Word]:
    """Every reduced word up to a length over the first max_index generators.

    The vertices of the identity's ball, ``cayley.ball_graph``: by length,
    then by the positional letter sequence, the identity first.
    """
    return list(ball_graph(IDENTITY, max_len, max_index).vertices)


def enumerate_small_vectors(indices: Tuple, bound: int = 2) -> List[LexVector]:
    """Every vector supported on the given indices with entries in [-bound, bound]."""
    values = range(-bound, bound + 1)
    return [
        LexVector(zip(indices, combo))
        for combo in product(values, repeat=len(indices))
    ]
