"""Shorthands the test modules share: words and vectors from their text."""

from bigfree.ordered_abelian import TOP, LexVector
from bigfree.words import parse_word


def W(text):
    return parse_word(text)


def vec(*coords, top=0):
    """The vector with these coordinates at ranks 1, 2, ... and ``top`` at TOP."""
    return LexVector([*enumerate(coords, start=1), (TOP, top)])
