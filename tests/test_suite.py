"""The property suite builds failure messages only for checks that fail,
and reports a property that raises instead of ending the run."""

from random import Random

from bigfree import cli, sampling, suite, tree
from bigfree.ordered_abelian import BigFreeError
from bigfree.ordered_abelian import LexVector, ZERO, half_exact
from bigfree.words import Word, format_word, inverse, length_vector, multiply


def test_a_passing_run_formats_no_word_or_vector(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check built its failure message")

    monkeypatch.setattr(suite, "format_word", refuse)
    monkeypatch.setattr(tree, "format_word", refuse)
    monkeypatch.setattr(LexVector, "__str__", refuse)
    results = suite.run_all(samples=50)
    assert len(results) == len(suite.PROPERTIES)
    assert all(r.ok for r in results), [r.failures for r in results if not r.ok]


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
