"""The samplers draw exactly the stream of their randint/choice formulation.

``random_word`` and ``random_reduced_word`` call ``Random._randbelow``
directly.  The oracles below are their ``randint``/``choice`` bodies; every
sample and the generator state after it must match, so seeded suites and
benchmarks see the same inputs whichever formulation runs.
"""

from random import Random
from typing import List

import pytest

from bigfree import sampling
from bigfree.words import Word

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


@pytest.mark.parametrize("sampler", [sampling.random_word, sampling.random_reduced_word])
@pytest.mark.parametrize("max_len, max_index", [(-1, 3), (4, 0)])
def test_word_samplers_reject_empty_ranges(sampler, max_len, max_index):
    with pytest.raises(ValueError):
        sampler(Random(0), max_len, max_index)
