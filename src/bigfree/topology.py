"""Two neighborhood bases on the group and the predicates that compare them.

A letter ball around w keeps every element reachable from w by a tail using
only letters strictly above a threshold index; a metric ball keeps every
element strictly closer than a positive vector.  The letter ball reads the
difference word reduce(w^-1 v), which callers doing bulk sweeps can
precompute; the metric ball needs only its length, the word metric
``word_dist``.
"""

from __future__ import annotations

from .ordered_abelian import AlphabetIndex, BigFreeError, LexVector, ZERO, check_index
from .words import Word, inverse, multiply, word_dist


def _require_reduced(w: Word, v: Word) -> None:
    if not (w.reduced and v.reduced):
        raise BigFreeError("ball membership is defined for reduced words")


def difference_word(w: Word, v: Word) -> Word:
    """reduce(w^-1 v) for reduced w, v."""
    _require_reduced(w, v)
    return multiply(inverse(w), v)


def uses_only_letters_above(u: Word, threshold: AlphabetIndex) -> bool:
    check_index(threshold)
    return all(idx > threshold for idx, _ in u.letters)


def in_letter_ball(w: Word, threshold: AlphabetIndex, v: Word) -> bool:
    """True iff v = w u where every letter of u has index > threshold."""
    return uses_only_letters_above(difference_word(w, v), threshold)


def in_metric_ball(w: Word, eps: LexVector, v: Word) -> bool:
    """True iff the distance from w to v is strictly below eps (eps > 0)."""
    if not eps > ZERO:
        raise BigFreeError("metric ball radius must be positive")
    _require_reduced(w, v)
    return word_dist(w, v) < eps
