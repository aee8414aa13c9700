"""Word parsing, reduction, group operations, metric and streams.

The reduction oracle below deletes adjacent cancelling pairs one at a time
in caller-chosen order; the library's stack pass must agree with every
deletion order.
"""

from random import Random

import pytest
from hypothesis import example, given, strategies as st

from bigfree.ordered_abelian import OMEGA_PLUS_ONE, BigFreeError, LexVector, ParseError, TOP, ZERO
from bigfree.sampling import enumerate_reduced_words, random_reduced_word, random_word
from bigfree.words import (
    IDENTITY,
    Word,
    common_prefix,
    double_gromov,
    format_word,
    gromov,
    harmonic_stream,
    inverse,
    is_subword,
    length_vector,
    multiply,
    parse_word,
    reduce,
    reversed_harmonic_stream,
    subwords,
    truncate,
    word_dist,
)


def W(text):
    return parse_word(text)


def vec(*coords, top=0):
    return LexVector.from_coords(coords, top=top)


def oracle_reduce(w: Word, rng: Random = None) -> Word:
    """Delete one adjacent cancelling pair at a time until none remains."""
    letters = list(w.letters)
    while True:
        hits = [i for i in range(len(letters) - 1)
                if letters[i + 1] == (letters[i][0], -letters[i][1])]
        if not hits:
            return Word(letters)
        pick = hits[0] if rng is None else rng.choice(hits)
        del letters[pick:pick + 2]


# -- parsing / formatting ------------------------------------------------------

def test_parse_examples():
    assert W("a1 a2^-1").letters == ((1, 1), (2, -1))
    assert W("") == IDENTITY
    assert W("a3^2").letters == ((3, 1), (3, 1))
    assert W("a2^-3").letters == ((2, -1),) * 3


def test_parse_does_not_reduce():
    w = W("a1 a1^-1")
    assert w.letters == ((1, 1), (1, -1))
    assert not w.reduced


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position 4"):
        parse_word("a1 q7")
    with pytest.raises(ParseError, match="zero exponent"):
        parse_word("a2^0")
    with pytest.raises(ParseError):
        parse_word("a0")
    with pytest.raises(BigFreeError):
        parse_word("b")  # TOP letter needs the omega+1 alphabet
    from bigfree.ordered_abelian import OMEGA_PLUS_ONE
    assert parse_word("b^-2", OMEGA_PLUS_ONE).letters == ((TOP, -1), (TOP, -1))


def test_format_roundtrip_is_canonical():
    rng = Random(5)
    for _ in range(300):
        w = random_word(rng, 20, 6)
        assert parse_word(format_word(w)) == w
    assert format_word(W("a1 a1 a2^-1 a2^-1 a2^-1")) == "a1^2 a2^-3"
    assert format_word(IDENTITY) == ""


# -- reduction -----------------------------------------------------------------

def test_reduce_examples():
    assert reduce(W("a1 a1^-1")) == IDENTITY
    assert reduce(W("a1 a2 a2^-1 a1")) == W("a1 a1")
    assert reduce(W("a2^-1 a1 a1^-1 a2 a3")) == oracle_reduce(W("a2^-1 a1 a1^-1 a2 a3")) == W("a3")


def test_reduce_agrees_with_every_deletion_order():
    rng = Random(17)
    for _ in range(500):
        w = random_word(rng, 24, 4)
        expected = reduce(w)
        for trial in range(4):
            assert oracle_reduce(w, rng) == expected
        assert reduce(expected) == expected  # idempotent
        assert expected.reduced


# -- group operations -------------------------------------------------------------

def test_multiply_examples():
    assert multiply(W("a1 a2"), W("a2^-1 a1")) == W("a1 a1")
    w = W("a2 a3^-1")
    assert multiply(w, IDENTITY) == w
    assert multiply(w, inverse(w)) == IDENTITY
    assert inverse(W("a1 a2^-1")) == W("a2 a1^-1")


def test_multiply_matches_oracle_on_random_pairs():
    rng = Random(23)
    for _ in range(400):
        w = random_word(rng, 15, 4)
        v = random_word(rng, 15, 4)
        assert multiply(w, v) == oracle_reduce(Word(w.letters + v.letters), rng)


def test_group_axioms_on_reduced_samples():
    rng = Random(29)
    for _ in range(300):
        a = random_reduced_word(rng, 12, 4)
        b = random_reduced_word(rng, 12, 4)
        c = random_reduced_word(rng, 12, 4)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, inverse(a)) == IDENTITY
        assert inverse(inverse(a)) == a


# -- lengths and the metric ----------------------------------------------------------

def test_length_examples():
    assert length_vector(IDENTITY) == ZERO
    assert length_vector(W("a1 a2 a1^-1")) == vec(2, 1)
    assert length_vector(W("a1 a1^-1 a3")) == vec(0, 0, 1)


def test_dist_examples():
    w = W("a2 a1")
    assert word_dist(w, w) == ZERO
    assert word_dist(IDENTITY, W("a1")) == vec(1)
    assert word_dist(W("a1 a2"), W("a1 a3")) == vec(0, 1, 1)


def test_gromov_examples():
    assert gromov(W("a1 a2"), W("a1 a3")) == vec(1)
    g = W("a2 a1^-1 a2")
    assert gromov(g, g) == length_vector(g)
    assert gromov(W("a1"), W("a1^-1")) == ZERO


def test_gromov_equals_prefix_length():
    rng = Random(31)
    for _ in range(500):
        g = random_reduced_word(rng, 20, 5)
        h = random_reduced_word(rng, 20, 5)
        assert gromov(g, h) == length_vector(common_prefix(g, h))


_LETTERS = st.tuples(st.sampled_from([1, 2, 3, TOP]), st.sampled_from([1, -1]))
_WORDS = st.lists(_LETTERS, max_size=30).map(Word)


@st.composite
def _word_pairs(draw):
    """Unreduced words over a1..a3 and b; the second shares a prefix with the first."""
    g = draw(_WORDS)
    return g, Word(g.letters[:draw(st.integers(0, len(g.letters)))] + draw(_WORDS).letters)


@given(_word_pairs())
@example((IDENTITY, IDENTITY))
@example((IDENTITY, parse_word("b a1^-1", OMEGA_PLUS_ONE)))
@example((parse_word("a1 a1^-1 b a2", OMEGA_PLUS_ONE), parse_word("b a2^-1 a2 a2", OMEGA_PLUS_ONE)))
def test_double_gromov_equals_definitional_formula(pair):
    g, h = pair
    difference = length_vector(multiply(inverse(g), h))
    definitional = length_vector(g) + length_vector(h) - difference
    assert double_gromov(g, h) == definitional
    assert gromov(g, h).double() == definitional
    assert word_dist(g, h) == difference


def test_common_prefix_examples():
    assert common_prefix(W("a1 a2"), W("a1 a3")) == W("a1")
    g = W("a3 a1")
    assert common_prefix(g, g) == g
    assert common_prefix(W("a1"), W("a2")) == IDENTITY
    with pytest.raises(BigFreeError):
        common_prefix(W("a1 a1^-1"), W("a1"))


def test_zero_hyperbolicity_sampled():
    rng = Random(37)
    for _ in range(1000):
        words = [random_reduced_word(rng, 20, 5) for _ in range(3)]
        products = [gromov(words[0], words[1]),
                    gromov(words[0], words[2]),
                    gromov(words[1], words[2])]
        lo = min(products)
        assert products.count(lo) >= 2


# -- subwords --------------------------------------------------------------------------

def test_is_subword_examples():
    w = W("a1 a2")
    assert is_subword(IDENTITY, w)
    assert is_subword(W("a1"), w)
    assert not is_subword(W("a2"), w)


def test_subwords_examples():
    assert subwords(IDENTITY) == [IDENTITY]
    assert subwords(W("a2 a1")) == [IDENTITY, W("a2"), W("a2 a1")]
    assert subwords(W("a1 a1")) == [IDENTITY, W("a1"), W("a1 a1")]
    with pytest.raises(BigFreeError):
        subwords(W("a1 a1^-1"))


def test_subwords_are_exactly_the_is_subword_hits():
    rng = Random(41)
    pool = enumerate_reduced_words(3, 2)
    for _ in range(40):
        w = random_reduced_word(rng, 3, 2)
        members = set(subwords(w))
        for v in pool:
            assert is_subword(v, w) == (v in members)


@st.composite
def _reduced_pairs(draw):
    """Reduced words v and w; half the time v is an initial segment of w."""
    g, h = draw(_word_pairs())
    w = reduce(g)
    if draw(st.booleans()):
        return Word._make(w.letters[:draw(st.integers(0, len(w.letters)))], True), w
    return reduce(h), w


@given(_reduced_pairs())
def test_is_subword_agrees_with_the_length_identity(pair):
    """For reduced words, v is an initial segment of w iff L(v) + L(v^-1 w) = L(w)."""
    v, w = pair
    assert is_subword(v, w) == (length_vector(v) + word_dist(v, w) == length_vector(w))


# -- streams ----------------------------------------------------------------------------

def test_truncate_examples():
    assert truncate(harmonic_stream(), 3) == W("a1 a2 a3")
    assert truncate(reversed_harmonic_stream(), 3) == W("a3 a2 a1")
    assert truncate(reversed_harmonic_stream(), 0) == IDENTITY


def test_stream_truncations_are_cauchy():
    s = harmonic_stream()
    for j in range(0, 15):
        for k in range(0, 15):
            d = word_dist(truncate(s, j), truncate(s, k))
            assert all(idx > min(j, k) for idx, _ in d.entries)
