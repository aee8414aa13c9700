"""Shorthands the test modules share: words and vectors from their text."""

from bigfree.ordered_abelian import LexVector
from bigfree.words import parse_word


def W(text):
    return parse_word(text)


def vec(*coords, top=0):
    return LexVector.from_coords(coords, top=top)
