"""Order, arithmetic and text form of the coordinate vectors."""

from fractions import Fraction
from random import Random

import pytest

from bigfree.ordered_abelian import (
    BigFreeError,
    HalfError,
    LexVector,
    OMEGA,
    OMEGA_PLUS_ONE,
    ParseError,
    TOP,
    ZERO,
    format_vector,
    half_exact,
    parse_vector,
)
from bigfree.sampling import random_small_vector

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
    assert top_unit < LexVector.unit(10**9)
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
    with pytest.raises(BigFreeError):
        LexVector.unit(0)
    with pytest.raises(BigFreeError):
        LexVector.unit(1, True)


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


def test_parse_format_roundtrip():
    rng = Random(3)
    for _ in range(300):
        x = random_small_vector(rng, 6, 7)
        assert parse_vector(format_vector(x)) == x
    y = vec(2, -3, top=5)
    assert parse_vector(format_vector(y), OMEGA_PLUS_ONE) == y


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_vector("1,2")
    with pytest.raises(ParseError):
        parse_vector("[1,]")
    with pytest.raises(ParseError):
        parse_vector("[1.5]")
    with pytest.raises(BigFreeError):
        parse_vector("[1;TOP=2]", OMEGA)  # TOP is an omega+1 feature
    assert parse_vector("[1;TOP=2]", OMEGA_PLUS_ONE) == vec(1, top=2)


def test_min_and_sorting_work_through_rich_comparisons():
    xs = [vec(1), vec(0, 5), vec(1, -1), ZERO]
    assert min(xs) == ZERO
    assert sorted(xs) == [ZERO, vec(0, 5), vec(1, -1), vec(1)]
