"""The property suite builds failure messages only for checks that fail."""

from random import Random

from bigfree import sampling, suite, tree
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
