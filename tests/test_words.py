"""Word parsing, reduction, group operations, metric and streams.

The reduction oracle below deletes adjacent cancelling pairs one at a time
in caller-chosen order; the library's stack pass must agree with every
deletion order.
"""

from collections import Counter
from itertools import islice
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from bigfree.ordered_abelian import (
    BigFreeError,
    ParseError,
    ResourceLimitError,
    TOP,
    ZERO,
)
from bigfree.sampling import enumerate_reduced_words, random_reduced_word, random_word
from bigfree.words import (
    IDENTITY,
    MAX_WORD_LETTERS,
    Word,
    _TOKEN,
    _WORD_TOKEN,
    _is_reduced,
    common_prefix,
    double_gromov,
    format_word,
    gromov,
    harmonic_word,
    inverse,
    is_subword,
    length_vector,
    letter,
    letter_name,
    multiply,
    parse_generator,
    parse_letter_token,
    parse_word,
    reduce,
    reduced_word_counts,
    subwords,
    word_dist,
)

from helpers import W, vec


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
    with pytest.raises(BigFreeError, match="letter sign must be"):
        letter(1, 2)
    with pytest.raises(BigFreeError, match="letter sign must be"):
        Word([(1, 2)])
    assert parse_word("b").letters == ((TOP, 1),)
    assert parse_word("b^-2").letters == ((TOP, -1), (TOP, -1))


def test_letter_ranks_stop_at_the_word_letter_cap():
    # a length vector's text has one coordinate per rank, up to the largest
    assert parse_word("a1000000").letters == ((1_000_000, 1),)
    assert parse_letter_token("a1000000^-1") == (1_000_000, -1)
    for parse in (parse_word, parse_letter_token):
        for text in ("a1000001", "a99999999999"):
            with pytest.raises(ResourceLimitError) as info:
                parse(text)
            assert str(info.value) == "letter rank must be at most 1000000"  # the rank is not echoed


def test_a_generator_is_read_with_no_sign():
    # the letter argument of ball-letter and embed-compare; edge-point text keeps its signed letter
    assert parse_generator("a3") == 3
    assert parse_generator(" a1000000 ") == 1_000_000
    assert parse_generator("b") is TOP
    for text in ("a3^-1", "a3^1", "a3^2", "b^-1", "a3 a4", "", "c"):
        with pytest.raises(ParseError, match="^bad letter token"):
            parse_generator(text)
    with pytest.raises(ResourceLimitError, match="letter rank must be at most 1000000"):
        parse_generator("a1000001")
    assert parse_letter_token("a3^-1") == (3, -1)
    assert parse_letter_token("b^-1") == (TOP, -1)


def test_format_roundtrip_is_canonical():
    rng = Random(5)
    for _ in range(300):
        w = random_word(rng, 20, 6)
        assert parse_word(format_word(w)) == w
    assert format_word(W("a1 a1 a2^-1 a2^-1 a2^-1")) == "a1^2 a2^-3"
    assert format_word(IDENTITY) == ""


def oracle_parse_word(text):
    """The letter-by-letter parser that ``parse_word`` replaced, kept as its reference."""
    letters = []
    for m in _TOKEN.finditer(text):
        token = m.group(0)
        tm = _WORD_TOKEN.fullmatch(token)
        if not tm:
            raise ParseError(f"bad token {token!r} at position {m.start() + 1}")
        idx = TOP if tm.group(1) is None else int(tm.group(1))
        exp = 1 if tm.group(2) is None else int(tm.group(2))
        if exp == 0:
            raise ParseError(f"zero exponent in token {token!r} at position {m.start() + 1}")
        sign = 1 if exp > 0 else -1
        letters.extend((idx, sign) for _ in range(abs(exp)))
    letters = tuple(letters)
    return Word._make(letters, _is_reduced(letters))


def oracle_format_word(w):
    """The index-scanning formatter that ``format_word`` replaced, kept as its reference."""
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


def _outcome(parse, text):
    """Letters and reduction flag of a parse, or the type and text of what it raised."""
    try:
        w = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return w.letters, w.reduced


_RUNS = st.lists(st.tuples(st.sampled_from([1, 2, 3, 7, 12, TOP]), st.sampled_from([1, -1]),
                           st.integers(1, 40)), max_size=40)
_MALFORMED = ["a0", "a01", "q7", "a2^0", "^2", "a1^", "a3^+2", "b1"]
_TOKENS = st.one_of(
    st.builds(lambda k, e: f"a{k}^{e}", st.integers(1, 12), st.integers(-5, 5).filter(bool)),
    st.builds("a{}^1".format, st.integers(1, 12)),
    st.builds("a{}^-1".format, st.integers(1, 12)),
    st.builds("a{}".format, st.integers(1, 12)),
    st.sampled_from(["b", "b^-1", "b^3"] + _MALFORMED),
)


@given(_RUNS)
@example([])
@example([(TOP, -1, 40), (TOP, 1, 1), (1, 1, 40), (1, -1, 40), (1, 1, 40), (1, 1, 1)])
def test_format_word_matches_its_oracle(runs):
    """Words up to 200 letters with long runs, mixed signs and TOP letters."""
    w = Word([(idx, sign) for idx, sign, n in runs for _ in range(n)][:200])
    text = format_word(w)
    assert text == oracle_format_word(w)
    assert parse_word(text) == w


@given(st.lists(st.tuples(_TOKENS, st.sampled_from([" ", "\t", "\n", "  ", " \t\n "])), max_size=30))
@example([("a3^1", "\t"), ("a3^-1", "\n"), ("a3^1", " ")])
def test_parse_word_matches_its_oracle(tokens):
    """Same letters and flag, or the same exception type and text, on valid and malformed text."""
    text = "".join(sep + token for token, sep in tokens)
    assert _outcome(parse_word, text) == _outcome(oracle_parse_word, text)


@pytest.mark.parametrize("token", _MALFORMED)
def test_parse_word_rejects_malformed_tokens_as_its_oracle_does(token):
    text = f"a1 a2^-1\t{token} a3"
    got = _outcome(parse_word, text)
    assert got == _outcome(oracle_parse_word, text)
    assert got[0] is ParseError


@pytest.mark.parametrize("text", [f"a1^{MAX_WORD_LETTERS + 1}",
                                  f"a1^{MAX_WORD_LETTERS // 2 + 1} a2^-{MAX_WORD_LETTERS // 2 + 1}",
                                  "a1^600000 a1^600000"])
def test_parse_word_refuses_words_past_the_letter_cap(text):
    """The cap counts the running total of letters, not each token on its own,
    and is checked again when a token repeats and its letters are not read again."""
    with pytest.raises(ResourceLimitError, match=f"word would exceed {MAX_WORD_LETTERS} letters"):
        parse_word(text)


@pytest.mark.parametrize("text, message", [
    ("a1 q7 a2 q7", "bad token 'q7' at position 4"),
    ("a1\ta2^0  a1 a2^0", "zero exponent in token 'a2^0' at position 4"),
])
def test_parse_word_reports_a_repeated_bad_token_at_its_first_position(text, message):
    assert _outcome(parse_word, text) == _outcome(oracle_parse_word, text) == (ParseError, message)


@st.composite
def _repeated_token_texts(draw):
    """Up to 60 tokens drawn from a pool of at most four, so most tokens repeat."""
    pool = draw(st.lists(_TOKENS, min_size=1, max_size=4))
    return " ".join(draw(st.lists(st.sampled_from(pool), max_size=60)))


@given(_repeated_token_texts())
@example("a2^3 b^-1 a2^3 a2 b^-1 a2^3")
def test_parse_word_reads_repeated_tokens_as_its_oracle_does(text):
    assert _outcome(parse_word, text) == _outcome(oracle_parse_word, text)


def test_parse_word_accepts_a_word_at_the_letter_cap():
    assert len(parse_word(f"a1^{MAX_WORD_LETTERS - 1} a2")) == MAX_WORD_LETTERS


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
@example((IDENTITY, parse_word("b a1^-1")))
@example((parse_word("a1 a1^-1 b a2"), parse_word("b a2^-1 a2 a2")))
def test_double_gromov_equals_definitional_formula(pair):
    g, h = pair
    difference = length_vector(multiply(inverse(g), h))
    definitional = length_vector(g) + length_vector(h) - difference
    assert double_gromov(g, h) == definitional
    assert gromov(g, h).double() == definitional
    assert word_dist(g, h) == difference


def _stack_reduce(letters: tuple) -> tuple:
    """Reduced letters by pushing every letter through one stack, tested against a built inverse."""
    stack = []
    for idx, sign in letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


_FACTORS = st.one_of(
    st.lists(_LETTERS, max_size=120).map(Word),
    st.lists(_LETTERS, max_size=120).map(Word).map(reduce),
    _LETTERS.map(lambda lt: Word([lt])),
)


@given(_FACTORS, _FACTORS, st.booleans())
@example(IDENTITY, IDENTITY, False)
@example(parse_word("a1 a2^-1 b"), IDENTITY, True)  # full cancellation
@example(parse_word("a1 a2 a2^-1 a3"), parse_word("a3^-1 a1^-1"), False)
@example(parse_word("a2"), parse_word("a2^-1 a2^-1"), False)
def test_multiply_scans_only_the_junction(w, v, invert):
    if invert:
        v = inverse(w)
    product = multiply(w, v)
    assert product.reduced and product.letters == _stack_reduce(w.letters + v.letters)
    assert Word(product.letters).reduced


_RUN_WORDS = st.lists(st.tuples(_LETTERS, st.integers(1, 5)), max_size=24).map(
    lambda runs: Word([lt for lt, n in runs for _ in range(n)]))  # runs of one letter, b and b^-1 among them


@given(_RUN_WORDS, _RUN_WORDS)
@example(parse_word("b b^-1 b^2 a1^3"), parse_word("a1^-3 b^-2 a2"))
@example(parse_word("a1^2 a1^-2 b^-1"), IDENTITY)
def test_reduce_multiply_and_the_reduced_flag_match_a_stack_reducer(w, v):
    for word in (w, v):
        reduced = _stack_reduce(word.letters)
        assert reduce(word).letters == reduced
        assert Word(word.letters).reduced == (reduced == word.letters)
    assert multiply(w, v).letters == _stack_reduce(w.letters + v.letters)


def test_common_prefix_examples():
    assert common_prefix(W("a1 a2"), W("a1 a3")) == W("a1")
    g = W("a3 a1")
    assert common_prefix(g, g) == g
    assert common_prefix(W("a1"), W("a2")) == IDENTITY
    with pytest.raises(BigFreeError):
        common_prefix(W("a1 a1^-1"), W("a1"))


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


def test_subwords_refuse_more_than_the_word_letter_cap_in_all():
    # the initial segments of an n-letter word hold n(n+1)/2 letters: 998,991 at n = 1413, 1,000,405 at 1414
    assert len(subwords(Word([(1, 1)] * 1413))) == 1414
    for n in (1414, 100_000):
        with pytest.raises(ResourceLimitError, match=f"exceed {MAX_WORD_LETTERS} letters"):
            subwords(Word([(1, 1)] * n))


def test_subwords_are_exactly_the_is_subword_hits():
    rng = Random(41)
    pool = enumerate_reduced_words(3, 2)
    for _ in range(40):
        w = random_reduced_word(rng, 3, 2)
        members = set(subwords(w))
        for v in pool:
            assert is_subword(v, w) == (v in members)


@pytest.mark.parametrize("max_index", [0, 1, 2, 3])
@pytest.mark.parametrize("max_len", [0, 1, 2, 4])
def test_reduced_word_counts_match_the_enumeration(max_len, max_index):
    lengths = Counter(len(w) for w in enumerate_reduced_words(max_len, max_index))
    assert list(reduced_word_counts(max_len, max_index)) == [lengths[n] for n in range(max_len + 1) if lengths[n]]


def test_reduced_word_counts_follow_the_closed_form_without_building_words():
    # 2k (2k - 1)^(n - 1) reduced words of length n >= 1 over k generators
    assert list(islice(reduced_word_counts(10**12, 3), 40)) == [1] + [6 * 5 ** (n - 1) for n in range(1, 40)]
    assert list(reduced_word_counts(10**12, 0)) == [1]  # no generator: the identity alone, at once


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

def test_harmonic_word_examples():
    assert harmonic_word(3) == W("a1 a2 a3")
    assert harmonic_word(0) == IDENTITY
    with pytest.raises(BigFreeError, match="truncation depth"):
        harmonic_word(-1)


def test_stream_truncations_are_cauchy():
    for j in range(0, 15):
        for k in range(0, 15):
            d = word_dist(harmonic_word(j), harmonic_word(k))
            assert all(idx > min(j, k) for idx, _ in d.entries)
