"""The samplers draw exactly the stream of their randint/choice formulation.

Every sampler calls ``Random._randbelow`` directly.  The oracles below are
their ``randint``/``choice`` bodies; every sample and the generator state
after it must match, so seeded suites and benchmarks see the same inputs
whichever formulation runs.
"""

from fractions import Fraction
from random import Random
from typing import List

import pytest

from bigfree import sampling
from bigfree.cayley import cayley_point
from bigfree.ordered_abelian import LexVector, ZERO
from bigfree.tree import TreePoint
from bigfree.triples import EdgeTriple
from bigfree.words import Word, length_vector

SEEDS = [f"stream:{i}" for i in range(200)]


def oracle_random_word(rng: Random, max_len: int, max_index: int) -> Word:
    n = rng.randint(0, max_len)
    return Word((rng.randint(1, max_index), rng.choice((1, -1))) for _ in range(n))


def oracle_random_reduced_word(rng: Random, max_len: int, max_index: int) -> Word:
    n = rng.randint(0, max_len)
    letters: List[tuple] = []
    for _ in range(n):
        while True:
            lt = (rng.randint(1, max_index), rng.choice((1, -1)))
            if not letters or letters[-1] != (lt[0], -lt[1]):
                break
        letters.append(lt)
    return Word._make(tuple(letters), True)


def oracle_offset_inside(rng: Random, index: int) -> LexVector:
    j = index + rng.randint(1, 4)
    c = rng.randint(1, 5)
    if rng.random() < 0.5:
        return LexVector.unit(j, c)
    return LexVector.unit(index) - LexVector.unit(j, c)


def oracle_edge_letter(rng: Random, w: Word, max_index: int):
    sign = rng.choice((1, -1))
    while True:
        index = rng.randint(1, max_index)
        if not w.letters or w.letters[-1] != (index, -sign):
            return index, sign


def oracle_tree_point(rng: Random) -> TreePoint:
    g = oracle_random_reduced_word(rng, 12, 5)
    if not g.letters:
        return TreePoint(ZERO, g)
    cut = rng.randint(0, len(g.letters))
    base = length_vector(Word._make(g.letters[:cut], True))
    if cut == len(g.letters) or rng.random() < 0.3:
        return TreePoint(base, g)
    return TreePoint(base + oracle_offset_inside(rng, g.letters[cut][0]), g)


def oracle_edge_triple(rng: Random) -> EdgeTriple:
    w = oracle_random_reduced_word(rng, 10, 5)
    index, sign = oracle_edge_letter(rng, w, 5)
    return EdgeTriple(w, index, sign, oracle_offset_inside(rng, index))


def oracle_cayley_point(rng: Random):
    w = oracle_random_reduced_word(rng, 10, 5)
    if rng.random() < 0.25:
        return w
    index, sign = oracle_edge_letter(rng, w, 5)
    den = rng.randint(2, 12)
    return cayley_point(w, index, sign, Fraction(rng.randint(1, den - 1), den))


def oracle_small_vector(rng: Random, max_index: int, bound: int) -> LexVector:
    support = rng.sample(range(1, max_index + 1), rng.randint(0, min(3, max_index)))
    return LexVector((i, rng.randint(-bound, bound)) for i in support)


@pytest.mark.parametrize("sampler, oracle", [
    (sampling.random_word, oracle_random_word),
    (sampling.random_reduced_word, oracle_random_reduced_word),
])
@pytest.mark.parametrize("max_len", [0, 1, 12, 40])
@pytest.mark.parametrize("max_index", [1, 5, 8])
def test_word_samplers_draw_the_randint_choice_stream(sampler, oracle, max_len, max_index):
    for seed in SEEDS:
        fast, slow = Random(seed), Random(seed)
        for _ in range(3):
            got, want = sampler(fast, max_len, max_index), oracle(slow, max_len, max_index)
            assert (got.letters, got.reduced) == (want.letters, want.reduced), seed
        assert fast.getstate() == slow.getstate(), seed


@pytest.mark.parametrize("caller", [
    sampling.random_tree_point,
    sampling.random_edge_triple,
    sampling.random_cayley_point,
])
def test_point_samplers_draw_the_randint_choice_stream(monkeypatch, caller):
    fast_rngs = [Random(seed) for seed in SEEDS]
    fast = [repr(caller(rng)) for rng in fast_rngs]
    monkeypatch.setattr(sampling, "random_reduced_word", oracle_random_reduced_word)
    slow_rngs = [Random(seed) for seed in SEEDS]
    slow = [repr(caller(rng)) for rng in slow_rngs]
    assert fast == slow
    assert [r.getstate() for r in fast_rngs] == [r.getstate() for r in slow_rngs]


@pytest.mark.parametrize("sampler, oracle", [
    (sampling.random_tree_point, oracle_tree_point),
    (sampling.random_edge_triple, oracle_edge_triple),
    (sampling.random_cayley_point, oracle_cayley_point),
    (lambda rng: sampling.random_offset_inside(rng, 3), lambda rng: oracle_offset_inside(rng, 3)),
    (lambda rng: sampling.random_small_vector(rng, 5, 6), lambda rng: oracle_small_vector(rng, 5, 6)),
    (lambda rng: sampling.random_small_vector(rng, 0, 2), lambda rng: oracle_small_vector(rng, 0, 2)),
])
def test_point_samplers_match_their_randint_choice_bodies(sampler, oracle):
    for seed in SEEDS:
        fast, slow = Random(seed), Random(seed)
        for _ in range(3):
            assert repr(sampler(fast)) == repr(oracle(slow)), seed
        assert fast.getstate() == slow.getstate(), seed


@pytest.mark.parametrize("call", [
    lambda rng: sampling.random_small_vector(rng, -1, 2),
    lambda rng: sampling.random_small_vector(rng, 4, -1),
])
def test_point_samplers_reject_empty_ranges(call):
    with pytest.raises(ValueError):
        call(Random(0))


@pytest.mark.parametrize("sampler", [sampling.random_word, sampling.random_reduced_word])
@pytest.mark.parametrize("max_len, max_index", [(-1, 3), (4, 0)])
def test_word_samplers_reject_empty_ranges(sampler, max_len, max_index):
    with pytest.raises(ValueError):
        sampler(Random(0), max_len, max_index)
