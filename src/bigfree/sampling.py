"""Seeded sample generators shared by the property suites and the tests.

Stream contract: the samplers make every ``randint``/``choice`` draw through
``rng._randbelow`` exactly as CPython's ``randint(a, b)``
(``a + _randbelow(b - a + 1)``) and ``choice(s)`` (``s[_randbelow(len(s))]``)
do, so their samples and the generator state after them are those of the
``randint``/``choice`` formulation (``rng.random`` and ``rng.sample`` are
called as such); ``tests/test_sampling.py`` pins this.
An empty range raises ``ValueError``, as ``randint`` did, where
``_randbelow(0)`` would loop forever.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random
from typing import List, Optional, Tuple

from .cayley import GraphPoint, cayley_point
from .ordered_abelian import LexVector, ZERO
from .tree import TreePoint
from .triples import EdgeTriple
from .words import Cancellation, Word, _is_reduced, length_vector


def _check_ranges(max_len: int, max_index: int) -> None:
    if max_len < 0 or max_index < 1:
        raise ValueError(f"empty range: max_len={max_len}, max_index={max_index}")


def random_word(rng: Random, max_len: int, max_index: int) -> Word:
    """Uniform letters, cancellations allowed."""
    _check_ranges(max_len, max_index)
    below = rng._randbelow
    letters = tuple([(1 + below(max_index), (1, -1)[below(2)]) for _ in range(below(max_len + 1))])
    return Word._make(letters, _is_reduced(letters))


def random_reduced_word(rng: Random, max_len: int, max_index: int) -> Word:
    """Non-backtracking walk of uniform length."""
    _check_ranges(max_len, max_index)
    below = rng._randbelow
    n = below(max_len + 1)
    letters: List[tuple] = []
    for _ in range(n):
        while True:
            lt = (1 + below(max_index), (1, -1)[below(2)])
            if not letters or letters[-1] != (lt[0], -lt[1]):
                break
        letters.append(lt)
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
    """A vector strictly between 0 and the unit at index."""
    below = rng._randbelow
    j = index + 1 + below(4)
    c = 1 + below(5)
    if rng.random() < 0.5:
        return LexVector.unit(j, c)
    return LexVector.unit(index) - LexVector.unit(j, c)


def random_tree_point(rng: Random, max_len: int = 12, max_index: int = 5) -> TreePoint:
    """A point on a random edge of the interval toward a random word."""
    g = random_reduced_word(rng, max_len, max_index)
    if not g.letters:
        return TreePoint(ZERO, g)
    cut = rng._randbelow(len(g.letters) + 1)
    base = length_vector(Word._make(g.letters[:cut], True))
    if cut == len(g.letters) or rng.random() < 0.3:
        return TreePoint(base, g)
    return TreePoint(base + random_offset_inside(rng, g.letters[cut][0]), g)


def _edge_letter(rng: Random, w: Word, max_index: int) -> Tuple[int, int]:
    """A signed letter that may follow the reduced word w (sign drawn first)."""
    below = rng._randbelow
    sign = (1, -1)[below(2)]
    while True:
        index = 1 + below(max_index)
        if not w.letters or w.letters[-1] != (index, -sign):
            return index, sign


def random_edge_triple(rng: Random, max_len: int = 10, max_index: int = 5) -> EdgeTriple:
    w = random_reduced_word(rng, max_len, max_index)
    index, sign = _edge_letter(rng, w, max_index)
    return EdgeTriple(w, index, sign, random_offset_inside(rng, index))


def random_cayley_point(rng: Random, max_len: int = 10, max_index: int = 5) -> GraphPoint:
    w = random_reduced_word(rng, max_len, max_index)
    if rng.random() < 0.25:
        return w
    index, sign = _edge_letter(rng, w, max_index)
    den = 2 + rng._randbelow(11)
    return cayley_point(w, index, sign, Fraction(1 + rng._randbelow(den - 1), den))


def random_small_vector(rng: Random, max_index: int = 4, bound: int = 2) -> LexVector:
    if max_index < 0 or bound < 0:
        raise ValueError(f"empty range: max_index={max_index}, bound={bound}")
    below = rng._randbelow
    support = rng.sample(range(1, max_index + 1), below(min(3, max_index) + 1))
    return LexVector((i, below(2 * bound + 1) - bound) for i in support)


def enumerate_reduced_words(max_len: int, max_index: int) -> List[Word]:
    """Every reduced word up to a length over the first max_index generators.

    Deterministic order: by length, then by the positional letter sequence.
    """
    alphabet = [(k, s) for k in range(1, max_index + 1) for s in (1, -1)]
    out = [Word._make((), True)]
    layer: List[tuple] = [()]
    for _ in range(max_len if alphabet else 0):
        next_layer = []
        for letters in layer:
            for lt in alphabet:
                if letters and letters[-1] == (lt[0], -lt[1]):
                    continue
                next_layer.append(letters + (lt,))
        out.extend(Word._make(ls, True) for ls in next_layer)
        layer = next_layer
    return out


def enumerate_small_vectors(indices: Tuple, bound: int = 2) -> List[LexVector]:
    """Every vector supported on the given indices with entries in [-bound, bound]."""
    values = range(-bound, bound + 1)
    return [
        LexVector(zip(indices, combo))
        for combo in product(values, repeat=len(indices))
    ]
