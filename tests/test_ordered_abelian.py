"""Order, arithmetic and text form of the coordinate vectors."""

import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from bigfree.ordered_abelian import (
    BigFreeError,
    HalfError,
    LexVector,
    MAX_WORD_LETTERS,
    ParseError,
    ResourceLimitError,
    TOP,
    ZERO,
    check_index,
    format_vector,
    half_exact,
    parse_vector,
    read_number,
)
from bigfree import words
from bigfree.cayley import ball_graph, embed_compare
from bigfree.sampling import random_reduced_word, random_small_vector
from bigfree.triples import EdgeTriple

from helpers import vec


def test_compare_identical_empty():
    assert ZERO.compare(ZERO) == 0


def test_compare_examples():
    assert vec(1, -1).compare(vec(1)) == -1  # the gap value sits below the unit
    assert vec(0, 2).compare(vec(1, -5)) == -1
    assert vec(1).compare(vec(1, -1)) == 1


def test_top_dominates_every_rank():
    top_unit = LexVector.unit(TOP)
    assert top_unit > ZERO
    assert top_unit < vec(0, 0, 1)          # any natural coordinate decides first
    assert top_unit < LexVector.unit(MAX_WORD_LETTERS)
    assert vec(1) + top_unit > vec(1)


def test_add_examples():
    assert vec(1, 2) + vec(0, -2) == vec(1)
    assert vec(3, -1) + ZERO == vec(3, -1)
    assert vec(1) + vec(-1, 1) == vec(0, 1)
    assert vec(1, 2) + (-vec(1, 2)) == ZERO


def test_abs_examples():
    assert abs(ZERO) == ZERO
    assert abs(vec(-1, 5)) == vec(1, -5)
    assert abs(vec(0, 3)) == vec(0, 3)


def test_half_exact_examples():
    assert half_exact(vec(2, -4)) == vec(1, -2)
    assert half_exact(ZERO) == ZERO
    with pytest.raises(HalfError):
        half_exact(vec(1))
    with pytest.raises(HalfError, match="not an integer"):
        half_exact(LexVector({1: Fraction(1, 2)}))


def test_abs_subadditive_sampled():
    rng = Random(13)
    for _ in range(2000):
        x = random_small_vector(rng, 5, 4)
        y = random_small_vector(rng, 5, 4)
        assert abs(x + y) <= abs(x) + abs(y)
        assert abs(x) >= ZERO
        assert (abs(x) == ZERO) == x.is_zero()


def test_canonical_form_drops_zeros_and_whole_fractions():
    assert LexVector({1: 0, 2: 3}).entries == ((2, 3),)
    assert LexVector({1: Fraction(4, 2)}) == vec(2)
    assert LexVector({1: Fraction(1, 3)}).entries == ((1, Fraction(1, 3)),)


def test_unit_validates_and_keeps_the_canonical_form():
    assert LexVector.unit(3, 0) == ZERO
    assert LexVector.unit(TOP).entries == ((TOP, 1),)
    whole = LexVector.unit(2, Fraction(4, 2))
    assert whole.entries == ((2, 2),) and type(whole.entries[0][1]) is int
    assert LexVector.unit(1, Fraction(1, 3)).entries == ((1, Fraction(1, 3)),)
    for bad in [(True,), (0,), (-1,), (1.0,), (1, True), (1, 0.5)]:
        with pytest.raises(BigFreeError):
            LexVector.unit(*bad)


_INDICES = st.sampled_from([1, 2, 3, 4, TOP])
_VECTORS = st.dictionaries(
    _INDICES, st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)), max_size=5,
).map(LexVector)


@given(_VECTORS, _VECTORS, st.sets(_INDICES))
@example(LexVector({1: Fraction(1, 2)}), LexVector({1: Fraction(-1, 2)}), set())
@example(LexVector({2: 1, TOP: Fraction(1, 3)}), ZERO, {2, TOP})
def test_sub_is_adding_the_negation(a, c, shared):
    """``a - b`` against its definition ``a + (-b)``; ``b`` copies ``a`` on ``shared``, which then cancels."""
    b = LexVector({**dict(c.entries), **{i: a.get(i) for i in shared}})
    got, want = a - b, a + (-b)
    assert got.entries == want.entries
    assert [type(v) for _, v in got.entries] == [type(v) for _, v in want.entries]


def test_double_stores_whole_fractions_as_ints():
    doubled = LexVector({1: Fraction(1, 2), 2: Fraction(3, 2), 3: Fraction(1, 3)}).double()
    assert doubled.entries == ((1, 1), (2, 3), (3, Fraction(2, 3)))
    assert [type(v) for _, v in doubled.entries] == [int, int, Fraction]
    assert vec(1, -2, top=3).double() == vec(2, -4, top=6)


def test_rejects_bad_entries():
    with pytest.raises(BigFreeError):
        LexVector({0: 1})
    with pytest.raises(BigFreeError):
        LexVector({1: 0.5})
    with pytest.raises(BigFreeError):
        LexVector([(1, 1), (1, 2)])


def test_format_examples():
    assert format_vector(ZERO) == "[]"
    assert format_vector(vec(1, -1)) == "[1,-1]"
    assert format_vector(vec(0, 3)) == "[0,3]"
    assert format_vector(LexVector({1: Fraction(1, 2)})) == "[1/2]"
    assert format_vector(LexVector.unit(TOP)) == "[;TOP=1]"
    assert format_vector(vec(1, 0, 2, top=-1)) == "[1,0,2;TOP=-1]"


def test_vector_text_stops_at_the_letter_rank_cap():
    # the text has one coordinate per rank up to the largest: the cap parse_word reads ranks under
    assert words.MAX_WORD_LETTERS is MAX_WORD_LETTERS == 1_000_000
    assert format_vector(LexVector.unit(MAX_WORD_LETTERS, -1)).endswith(",0,-1]")
    assert format_vector(LexVector.unit(MAX_WORD_LETTERS + 1)) == "[;TOP=1]"  # the rank past the cap is TOP
    for build in (lambda: LexVector.unit(10**11), lambda: LexVector.unit(10**5000),
                  lambda: LexVector([(1, 1), (2_000_000, 3), (TOP, 2)])):
        with pytest.raises(ResourceLimitError) as info:
            build()  # refused when the vector is built, before any text
        assert str(info.value) == "letter rank must be at most 1000000"  # the rank is not echoed


def test_vector_text_past_the_last_rank_is_refused_before_any_coordinate_is_read():
    # MAX_WORD_LETTERS empty coordinates pass the cap and fail on the first; one more is refused at once
    with pytest.raises(ParseError, match="^bad coordinate ''"):
        parse_vector("[" + "," * (MAX_WORD_LETTERS - 1) + "]")
    with pytest.raises(ResourceLimitError, match="^letter rank must be at most 1000000$"):
        parse_vector("[" + "," * MAX_WORD_LETTERS + ";TOP=1]")


def test_check_index_passes_exactly_the_ints_from_one_to_top():
    for idx in (1, MAX_WORD_LETTERS, TOP):
        check_index(idx)
    for idx in (TOP + 1, 10**5000):
        with pytest.raises(ResourceLimitError) as info:
            check_index(idx)
        assert str(info.value) == "letter rank must be at most 1000000"
    for idx in (0, -1, True, 1.0, "x", None):
        with pytest.raises(BigFreeError, match="^invalid alphabet index") as info:
            check_index(idx)
        assert not isinstance(info.value, ResourceLimitError)
    assert sorted([TOP, 3, 1]) == [1, 3, TOP]


def test_parse_format_roundtrip():
    rng = Random(3)
    for _ in range(300):
        x = random_small_vector(rng, 6, 7)
        assert parse_vector(format_vector(x)) == x
    y = vec(2, -3, top=5)
    assert parse_vector(format_vector(y)) == y


_COORDS = st.one_of(st.integers(), st.fractions())


@given(st.lists(_COORDS, max_size=6), _COORDS)
@example([], 0)  # the zero vector
def test_vector_text_round_trips(coords, top):
    x = vec(*coords, top=top)
    assert parse_vector(format_vector(x)) == x


def test_read_number_takes_ascii_digits_an_optional_minus_and_p_over_q_where_allowed():
    assert (read_number("42"), read_number("-007"), read_number("-0")) == (42, -7, 0)
    assert read_number("3/6", fraction=True) == Fraction(1, 2)
    assert read_number("-4/2", fraction=True) == -2
    assert read_number("5", fraction=True) == 5
    for text in ("", "-", "+1", " 1", "1 ", "1_0", "\u0661", "\uff11", "1.5", "1e3", "--1", "3/6"):
        with pytest.raises(ParseError, match="bad number"):
            read_number(text)
    for text in ("1/0", "1/-2", "1/+2", "/2", "1/", "1/2/3", "1 / 2"):
        with pytest.raises(ParseError, match="bad number"):
            read_number(text, fraction=True)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() has no digit limit")
def test_read_number_refuses_more_digits_than_int_converts_without_echoing_them():
    for text, fraction in (("9" * 5000, False), ("-" + "9" * 5000, False), ("1/" + "9" * 5000, True)):
        with pytest.raises(ResourceLimitError) as info:
            read_number(text, fraction)
        assert str(info.value).startswith("number too long") and "99" not in str(info.value)


_HUGE = -10**5000  # past the digits the interpreter turns into text


@pytest.mark.parametrize("refuse", [
    lambda: check_index(_HUGE),
    lambda: LexVector([(_HUGE, 1)]),
    lambda: words.letter(1, _HUGE),
    lambda: words.Cancellation([(_HUGE, 2)]),
    lambda: words.verify_cancellation(words.parse_word("a1 a1^-1"), words.Cancellation([(1, -_HUGE)])),
    lambda: half_exact(LexVector.unit(1, 1 - _HUGE)),
    lambda: EdgeTriple(words.IDENTITY, 1, _HUGE, LexVector.unit(1)),
    lambda: embed_compare(words.IDENTITY, 1, _HUGE),
    lambda: embed_compare(words.IDENTITY, 1, -_HUGE),
    lambda: ball_graph(words.IDENTITY, 1, 1, cap=_HUGE),
    lambda: random_reduced_word(Random(0), _HUGE, 2),
    lambda: random_small_vector(Random(0), 2, _HUGE),
], ids=["check_index", "LexVector", "letter-sign", "Cancellation", "pair-out-of-range", "odd-half", "EdgeTriple-sign",
        "points-low", "points-high", "ball-cap", "sampler-ranges", "small-vector"])
@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() has no digit limit")
def test_a_refused_int_too_long_to_print_is_a_one_line_error(refuse):
    with pytest.raises(ResourceLimitError) as info:
        refuse()
    assert str(info.value) == "number too long to print"


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_vector("1,2")
    with pytest.raises(ParseError):
        parse_vector("[1,]")
    with pytest.raises(ParseError):
        parse_vector("[1.5]")
    with pytest.raises(ParseError, match="expected TOP=<c>"):
        parse_vector("[1;x]")
    assert parse_vector("[1;TOP=2]") == vec(1, top=2)
    assert parse_vector("[;TOP=1/2]") == vec(top=Fraction(1, 2))


def test_min_and_sorting_work_through_rich_comparisons():
    xs = [vec(1), vec(0, 5), vec(1, -1), ZERO]
    assert min(xs) == ZERO
    assert sorted(xs) == [ZERO, vec(0, 5), vec(1, -1), vec(1)]
