"""The cancellation calculus checked against a direct set-based oracle."""

from random import Random

import pytest

from bigfree.sampling import random_cancellation, random_word
from bigfree.words import (
    Cancellation,
    IDENTITY,
    InvalidCancellationError,
    Word,
    apply_cancellation,
    format_cancellation,
    inverse_letter,
    parse_cancellation,
    parse_word,
    reduce,
    verify_cancellation,
)


def W(text):
    return parse_word(text)


def oracle_verify(w: Word, c: Cancellation):
    """Re-derive the three conditions by brute enumeration.

    Returns None when valid, else (reason, t) for the smallest offending t.
    """
    partner = c.partner_map()
    for t in sorted(partner):
        u = partner[t]
        lo, hi = min(t, u), max(t, u)
        span = set(range(lo, hi + 1))
        if not span <= set(partner):
            return ("complete", t)
        if {partner[s] for s in span & set(partner)} != span:
            return ("noncrossing", t)
        if w.letters[u - 1] != inverse_letter(w.letters[t - 1]):
            return ("inverse-pairing", t)
    return None


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


def test_verify_matches_oracle_on_random_pairings():
    rng = Random(47)
    for _ in range(400):
        w = random_word(rng, 12, 3)
        if len(w.letters) < 2:
            continue
        pairs = []
        positions = list(range(1, len(w.letters) + 1))
        rng.shuffle(positions)
        while len(positions) >= 2 and rng.random() < 0.8:
            pairs.append((positions.pop(), positions.pop()))
        c = Cancellation(pairs)
        check = verify_cancellation(w, c)
        want = oracle_verify(w, c)
        if want is None:
            assert check.ok
        else:
            assert (check.reason, check.position) == want


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


def test_cancellation_preserves_the_reduced_class():
    rng = Random(53)
    for _ in range(300):
        w = random_word(rng, 24, 4)
        c = random_cancellation(rng, w)
        if c is None:
            assert w.reduced
            continue
        assert verify_cancellation(w, c).ok
        assert reduce(apply_cancellation(w, c)) == reduce(w)


def test_parse_format_pairs():
    c = parse_cancellation("1-2, 3-4")
    assert c == Cancellation([(3, 4), (1, 2)])
    assert format_cancellation(c) == "1-2,3-4"
    assert parse_cancellation("") == Cancellation()
