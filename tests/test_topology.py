"""Letter balls, metric balls, and the inclusions tying them together."""

from random import Random

import pytest

from bigfree.ordered_abelian import BigFreeError, LexVector, TOP, ZERO
from bigfree.sampling import enumerate_reduced_words, random_reduced_word
from bigfree.topology import difference_word, in_letter_ball, in_metric_ball, uses_only_letters_above
from bigfree.words import length_vector, word_dist

from helpers import W, vec


def test_letter_ball_examples():
    w = W("a2 a4")
    assert in_letter_ball(w, 3, w)
    assert in_letter_ball(W("a1"), 3, W("a1 a5"))
    assert not in_letter_ball(W("a1"), 3, W("a1 a2"))


def test_metric_ball_examples():
    w = W("a3 a1")
    assert in_metric_ball(w, vec(1), w)
    assert not in_metric_ball(W(""), vec(0, 1), W("a2"))
    assert in_metric_ball(W(""), vec(1), W("a2^3 a5"))


def test_metric_ball_needs_positive_radius():
    with pytest.raises(BigFreeError):
        in_metric_ball(W(""), ZERO, W("a1"))
    with pytest.raises(BigFreeError):
        in_metric_ball(W(""), vec(-1), W("a1"))


def test_balls_require_reduced_words():
    with pytest.raises(BigFreeError):
        in_letter_ball(W("a1 a1^-1"), 2, W("a2"))
    # the word check comes before the threshold check, which runs even for v = w
    with pytest.raises(BigFreeError, match="defined for reduced words"):
        in_letter_ball(W("a1 a1^-1"), 0, W("a2"))
    with pytest.raises(BigFreeError, match="invalid alphabet index 0"):
        in_letter_ball(W("a1"), 0, W("a1"))


def test_top_threshold_admits_only_the_center():
    from bigfree.ordered_abelian import OMEGA_PLUS_ONE
    from bigfree.words import parse_word as pw

    w = W("a1")
    assert in_letter_ball(w, TOP, w)
    assert not in_letter_ball(w, TOP, W("a1 a7"))
    assert not in_letter_ball(w, TOP, pw("a1 b", OMEGA_PLUS_ONE))


def test_unit_radius_ball_equals_letter_ball():
    # with radius the unit vector at a, the two neighborhoods coincide
    words = enumerate_reduced_words(2, 4)
    for w in words[:20]:
        for v in words:
            for a in (1, 2, 3):
                assert in_metric_ball(w, LexVector.unit(a), v) == in_letter_ball(w, a, v)


def test_successor_letter_ball_sits_inside_every_matching_metric_ball():
    rng = Random(191)
    for _ in range(500):
        w = random_reduced_word(rng, 10, 6)
        v = random_reduced_word(rng, 10, 6)
        a = rng.randint(1, 4)
        eps = LexVector.unit(a) if rng.random() < 0.5 else \
            LexVector.unit(a, rng.randint(1, 3)) - LexVector.unit(a + 2, 4)
        if in_letter_ball(w, a + 1, v):
            assert in_metric_ball(w, eps, v)


def test_difference_word_drives_both_predicates():
    assert difference_word(W("a1 a3"), W("a1 a5 a4^-1")) == W("a3^-1 a5 a4^-1")
    # the prefix-scan predicates agree with the product route on every small pair
    words = enumerate_reduced_words(2, 4)
    for w in words:
        for v in words:
            u = difference_word(w, v)
            assert word_dist(w, v) == length_vector(u)
            for a in (1, 2, 3, TOP):
                assert in_letter_ball(w, a, v) == uses_only_letters_above(u, a), (w, v, a)
