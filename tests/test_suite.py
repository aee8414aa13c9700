"""The property suite: each registry law passes at 50 samples and builds
failure messages only for checks that fail; a property that raises is
reported instead of ending the run; one registry entry runs on a caller's
generator."""

from random import Random

import numpy as np
import pytest

import sweeps
from bigfree import cli, sampling, suite, tree
from bigfree.ordered_abelian import BigFreeError
from bigfree.ordered_abelian import LexVector, ZERO, half_exact
from bigfree.words import Word, format_word, inverse, length_vector, multiply, parse_word


@pytest.mark.parametrize("entry", suite.PROPERTIES, ids=lambda entry: f"{entry[0]}/{entry[1]}")
def test_a_passing_run_formats_no_word_or_vector(monkeypatch, entry):
    """Each registry law passes on the draws ``run_all(50)`` gives it."""
    def refuse(*args):
        raise AssertionError("a passing check built its failure message")

    monkeypatch.setattr(suite, "format_word", refuse)
    monkeypatch.setattr(tree, "format_word", refuse)
    monkeypatch.setattr(LexVector, "__str__", refuse)
    module, name, _ = entry
    result = suite.run_property(entry, Random(f"0:{module}:{name}"), 50)
    assert result.ok, result.failures


def _gromov_mismatches(seed: int, samples: int):
    """The draws of words/gromov-equals-prefix whose product is nonzero, in order."""
    rng = Random(f"{seed}:words:gromov-equals-prefix")
    for i in range(samples):
        draw = sampling.random_word if i % 2 else sampling.random_reduced_word
        g = draw(rng, 30, 6)
        h = Word(g.letters[:rng.randint(0, len(g.letters))] + draw(rng, 30, 6).letters)
        definitional = half_exact(
            length_vector(g) + length_vector(h) - length_vector(multiply(inverse(g), h)))
        if definitional != ZERO:
            yield f"gromov/definitional mismatch at {format_word(g)!r}, {format_word(h)!r}"


def test_a_failing_property_reports_its_messages(monkeypatch):
    entry = next(e for e in suite.PROPERTIES if e[:2] == ("words", "gromov-equals-prefix"))
    monkeypatch.setattr(suite, "PROPERTIES", [entry])
    monkeypatch.setattr(suite, "gromov", lambda g, h: ZERO)
    (result,) = suite.run_all(samples=200, seed=3)
    expected = list(_gromov_mismatches(3, 200))
    assert result.checks == 200 and len(expected) > suite.MAX_REPORTED_FAILURES
    assert result.failures == (expected[:suite.MAX_REPORTED_FAILURES]
                               + ["... more failures suppressed"])


def test_a_raising_property_is_reported_and_the_run_goes_on(monkeypatch, capsys):
    def domain_error(rec, rng, samples):
        rec.count(2)
        raise BigFreeError("offset out of range")

    def internal_error(rec, rng, samples):
        return 1 // 0

    real = next(e for e in suite.PROPERTIES if e[:2] == ("words", "length-nonnegative"))
    monkeypatch.setattr(suite, "PROPERTIES", [
        ("words", "raises-domain", domain_error), ("words", "raises-internal", internal_error), real])
    assert cli.main(["suite", "--samples", "20"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[:4] == [
        "[ERROR] words/raises-domain: 2 checks",
        "    BigFreeError: offset out of range",
        "[ERROR] words/raises-internal: 0 checks",
        "    ZeroDivisionError: integer division or modulo by zero",
    ]
    assert lines[4].startswith("[PASS] words/length-nonnegative: ")
    assert lines[5:] == ["total: 3 properties, 2 failed"]
    assert sum(line.startswith("[ERROR]") for line in lines) == 2
    assert err == "" and "Traceback" not in out

    # The exception text leads the failures, so a caller that reads only
    # checks and failures sees a raising property as failed, even one that
    # counted checks before it raised.
    domain, internal, passing = suite.run_all(samples=20)
    assert domain.raised and domain.checks == 2 and not domain.ok
    assert domain.failures == ["BigFreeError: offset out of range"]
    assert internal.raised and internal.failures == ["ZeroDivisionError: integer division or modulo by zero"]
    assert not passing.raised and passing.ok


def test_run_property_reports_raising_and_vacuous_properties_as_run_all_does(monkeypatch):
    def raises(rec, rng, samples):
        rec.count()
        raise BigFreeError("offset out of range")

    def vacuous(rec, rng, samples):
        pass

    entries = [("words", "raises", raises), ("words", "vacuous", vacuous)]
    monkeypatch.setattr(suite, "PROPERTIES", entries)
    direct = [suite.run_property(e, Random(f"0:{e[0]}:{e[1]}"), 20) for e in entries]
    assert direct == suite.run_all(samples=20)
    raised, empty = direct
    assert raised.raised and raised.failures == ["BigFreeError: offset out of range"]
    assert not raised.ok
    assert (empty.checks, empty.failures, empty.raised, empty.ok) == (0, [], False, False)


def test_run_property_draws_from_the_callers_generator():
    seen = []

    def draw(rec, rng, samples):
        seen.append([rng.random() for _ in range(samples)])
        rec.count()

    shared = Random("caller")
    for rng in (shared, shared, Random("caller")):
        assert suite.run_property(("words", "draw", draw), rng, 5).ok
    first, second, fresh = seen
    assert second != fresh and first == fresh


def test_the_acceptance_helper_shows_the_first_failure_message():
    from test_acceptance import run_checks

    def failing(rec, rng, samples):
        rec.expect(True, "a passing check")
        rec.expect(False, "first failure at sample 1")
        rec.expect(False, "second failure")

    with pytest.raises(AssertionError, match="first failure at sample 1"):
        run_checks(Random(0), 10, failing)
    with pytest.raises(AssertionError, match="words/zero-hyperbolicity-random: 0 checks"):
        run_checks(Random(0), 0, "words/zero-hyperbolicity-random")


def test_the_exhaustive_word_metric_names_the_triple_a_longer_product_breaks(monkeypatch):
    # d(a1, a2) = L(a1^-1 a2) + [0,0,1] passes d(a1, e) + d(e, a2), and c(a1, a2) < 0
    longer = parse_word("a1^-1 a2")
    monkeypatch.setattr(suite, "length_vector",
                        lambda w: length_vector(w) + (LexVector.unit(3) if w == longer else ZERO))
    entry = next(e for e in suite.PROPERTIES if e[:2] == ("words", "metric-axioms-exhaustive"))
    result = suite.run_property(entry, Random(0), 1)
    assert result.checks == 13_113_378
    assert result.failures == ["the triangle inequality is not certified on the enumeration",
                               "0-hyperbolicity fails at 'a2', 'a1', ''"]


def _two_smallest_violations_by_masks(two_c: np.ndarray) -> int:
    """Ordered triples whose least key is unique, by three equality masks."""
    x, y, z = two_c[:, :, None], two_c[:, None, :], two_c[None, :, :]
    lo = np.minimum(np.minimum(x, y), z)
    hits = (x == lo).astype(np.int8) + (y == lo) + (z == lo)
    return int(np.count_nonzero(hits < 2))


def _symmetric(keys: np.ndarray) -> np.ndarray:
    return np.triu(keys) + np.triu(keys, 1).T


def test_two_smallest_violations_match_the_three_mask_count():
    rng = np.random.default_rng(7)
    _, word_keys = sweeps.pair_tables(sampling.enumerate_reduced_words(3, 3), 3)
    tables = [word_keys, _symmetric(rng.integers(0, 4, (40, 40))),
              _symmetric(rng.integers(0, 10**6, (40, 40)))]  # more than 255 distinct keys
    for _ in range(3):
        broken = word_keys.copy()
        for i, j in rng.integers(0, len(broken), (3, 2)):
            broken[i, j] = broken[j, i] = broken[i, j] + int(rng.integers(1, 3))
        tables.append(broken)
    counts = [sweeps.exhaustive_two_smallest_violations(t) for t in tables]
    assert counts == [_two_smallest_violations_by_masks(t) for t in tables]
    assert counts[0] == 0 and all(counts[1:])
