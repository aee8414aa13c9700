"""The cancellation calculus checked against a direct set-based oracle."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from bigfree.ordered_abelian import ParseError
from bigfree.sampling import random_cancellation, random_word
from bigfree.words import (
    Cancellation,
    CancellationCheck,
    IDENTITY,
    InvalidCancellationError,
    Word,
    apply_cancellation,
    format_cancellation,
    inverse_letter,
    parse_cancellation,
    verify_cancellation,
)

from helpers import W


def oracle_verify(w: Word, c: Cancellation) -> CancellationCheck:
    """Re-derive the three conditions by brute enumeration.

    Reports the smallest offending position t with its reason and detail.
    """
    partner = c.partner_map()
    for t in sorted(partner):
        u = partner[t]
        lo, hi = min(t, u), max(t, u)
        span = set(range(lo, hi + 1))
        unpaired = sorted(span - set(partner))
        if unpaired:
            return CancellationCheck(False, "complete", t, f"position {unpaired[0]} in [{lo},{hi}] is unpaired")
        image = {partner[s] for s in span}
        if image != span:
            return CancellationCheck(False, "noncrossing", t, f"([{lo},{hi}]_T)* = {sorted(image)} != {sorted(span)}")
        if w.letters[u - 1] != inverse_letter(w.letters[t - 1]):
            return CancellationCheck(False, "inverse-pairing", t, f"w({hi}) is not the inverse of w({lo})")
    return CancellationCheck(True)


def test_valid_adjacent_pairs():
    check = verify_cancellation(W("a1 a1^-1 a2 a2^-1"), Cancellation([(1, 2), (3, 4)]))
    assert check.ok


def test_crossing_pairing_reported():
    check = verify_cancellation(W("a1 a2 a1^-1 a2^-1"), Cancellation([(1, 3), (2, 4)]))
    assert not check.ok
    assert check.reason == "noncrossing"
    assert check.position == 1


def test_non_inverse_pairing_reported():
    check = verify_cancellation(W("a1 a1"), Cancellation([(1, 2)]))
    assert not check.ok
    assert check.reason == "inverse-pairing"


def test_incomplete_pairing_reported():
    # the gap at position 2 is not part of the pairing
    check = verify_cancellation(W("a1 a2 a1^-1"), Cancellation([(1, 3)]))
    assert not check.ok
    assert check.reason == "complete"


def test_a_check_is_truthy_exactly_when_the_pairing_is_valid():
    assert bool(verify_cancellation(W("a1 a1^-1 a2 a2^-1"), Cancellation([(1, 2), (3, 4)]))) is True
    assert bool(verify_cancellation(W("a1 a2 a1^-1 a2^-1"), Cancellation([(1, 3), (2, 4)]))) is False
    assert bool(verify_cancellation(W("a1 a1"), Cancellation([(1, 2)]))) is False


def test_out_of_range_positions_raise():
    from bigfree.ordered_abelian import BigFreeError

    with pytest.raises(BigFreeError):
        verify_cancellation(W("a1 a1^-1"), Cancellation([(1, 5)]))


def test_pairing_shape_validated_at_construction():
    from bigfree.ordered_abelian import BigFreeError

    with pytest.raises(BigFreeError):
        Cancellation([(2, 2)])
    with pytest.raises(BigFreeError):
        Cancellation([(1, 2), (2, 3)])
    for pairs in ([(0, 2)], [(1.5, 2)]):
        with pytest.raises(BigFreeError, match="positions must be integers >= 1"):
            Cancellation(pairs)


def _faulty_pairing(rng: Random, w: Word):
    """A valid cancellation of w with at most one fault put in: two pairs
    crossed, one pair dropped, or one paired letter flipped."""
    pairs = list(random_cancellation(rng, w).pairs)
    fault = rng.randrange(4)
    if fault == 1 and len(pairs) >= 2:
        i, j = rng.sample(range(len(pairs)), 2)
        (a, b), (c, d) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, d), (c, b)
    elif fault == 2:
        pairs.pop(rng.randrange(len(pairs)))
    elif fault == 3:
        p = rng.choice(pairs)[rng.randrange(2)] - 1
        idx, sign = w.letters[p]
        w = Word(w.letters[:p] + ((idx, -sign),) + w.letters[p + 1:])
    return w, Cancellation(pairs)


def test_verify_matches_oracle_on_random_pairings():
    rng = Random(47)
    reasons = set()
    for trial in range(1000):
        if trial % 2:  # shuffled pairs of a short word
            w = random_word(rng, 12, 3)
            positions = list(range(1, len(w.letters) + 1))
            rng.shuffle(positions)
            pairs = []
            while len(positions) >= 2 and rng.random() < 0.8:
                pairs.append((positions.pop(), positions.pop()))
            c = Cancellation(pairs)
        else:
            w = random_word(rng, 60, 2)
            if w.reduced:
                continue
            w, c = _faulty_pairing(rng, w)
        check = verify_cancellation(w, c)
        assert check == oracle_verify(w, c)
        reasons.add(check.reason)
    assert reasons == {None, "complete", "noncrossing", "inverse-pairing"}


def _nesting(m, fault=None):
    """a1 ... am am^-1 ... a1^-1 paired mirror-wise, with one fault at the innermost pairs."""
    letters = [(k, 1) for k in range(1, m + 1)] + [(k, -1) for k in range(m, 0, -1)]
    pairs = [(i, 2 * m + 1 - i) for i in range(1, m + 1)]
    if fault == "crossing":  # the two innermost pairs swap partners
        pairs[-2:] = [(m - 1, m + 1), (m, m + 2)]
    elif fault == "incomplete":  # the innermost pair is dropped
        pairs.pop()
    elif fault == "inverse":  # the innermost pair is no longer inverse
        letters[m] = (m, 1)
    return Word(letters), Cancellation(pairs)


def test_verify_is_not_quadratic_in_the_pairing():
    # at m = 20,000 the nested spans hold 400,020,000 positions in all, too many to scan span by span
    m = 20_000
    assert verify_cancellation(*_nesting(m)) == CancellationCheck(True)
    assert verify_cancellation(*_nesting(m, "inverse")) == CancellationCheck(
        False, "inverse-pairing", m, f"w({m + 1}) is not the inverse of w({m})")


@pytest.mark.parametrize("fault, reason", [
    (None, None), ("crossing", "noncrossing"), ("incomplete", "complete"), ("inverse", "inverse-pairing"),
])
def test_verify_matches_oracle_on_a_deep_nesting(fault, reason):
    w, c = _nesting(60, fault)
    check = verify_cancellation(w, c)
    assert check == oracle_verify(w, c)
    assert check.reason == reason


@pytest.mark.parametrize("fault, expected", [
    ("crossing", CancellationCheck(
        False, "noncrossing", 19_999, "([19999,20001]_T)* = [19999, 20001, 20002] != [19999, 20000, 20001]")),
    ("incomplete", CancellationCheck(False, "complete", 1, "position 20000 in [1,40000] is unpaired")),
])
def test_verify_reports_a_fault_deep_in_a_long_nesting(fault, expected):
    """The screen finds a crossing or a gap among 20,000 nested pairs without scanning every span."""
    assert verify_cancellation(*_nesting(20_000, fault)) == expected


def test_apply_examples():
    assert apply_cancellation(W("a1 a1^-1"), Cancellation([(1, 2)])) == IDENTITY
    w = W("a3 a2 a1")
    assert apply_cancellation(w, Cancellation()) == w
    assert apply_cancellation(W("a1 a2 a2^-1 a3"), Cancellation([(2, 3)])) == W("a1 a3")


def test_apply_is_restriction_to_unpaired_positions():
    w = W("a1 a2 a2^-1 a1^-1 a3")
    c = Cancellation([(1, 4), (2, 3)])
    assert verify_cancellation(w, c).ok
    kept = tuple(lt for p, lt in enumerate(w.letters, 1) if p not in c.domain())
    assert apply_cancellation(w, c) == Word(kept)


def test_apply_rejects_invalid():
    with pytest.raises(InvalidCancellationError):
        apply_cancellation(W("a1 a1"), Cancellation([(1, 2)]))


def test_parse_format_pairs():
    c = parse_cancellation("1-2, 3-4")
    assert c == Cancellation([(3, 4), (1, 2)])
    assert format_cancellation(c) == "1-2,3-4"
    assert parse_cancellation("") == Cancellation()
    for text in ("1:2", "1-2-3", "1--2", "-1-2", "1-", "1_0-2", "+1-2", "\u0661-\u0662", "1-2,"):
        with pytest.raises(ParseError, match="bad cancellation pair"):
            parse_cancellation(text)


@given(st.lists(st.integers(1, 10**40), unique=True).map(lambda ps: Cancellation(zip(ps[::2], ps[1::2]))))
def test_cancellation_text_round_trips(c):
    assert parse_cancellation(format_cancellation(c)) == c
