"""Reference routes the checks compare library outputs against.

Everything here works on plain letter tuples ``(index, sign)`` and is
written independently of the library, so a check never compares the
library with itself.
"""

from __future__ import annotations

from collections import Counter


def reduce_letters(letters) -> tuple:
    """Free reduction by a stack pass."""
    stack: list = []
    for idx, sign in letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


def inverse_letters(letters) -> tuple:
    return tuple((idx, -sign) for idx, sign in reversed(letters))


def prefix_len(a, b) -> int:
    """Length of the longest common initial segment of two letter tuples."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def counts(letters) -> dict:
    """Per-generator letter counts: the length vector of a reduced word."""
    return dict(Counter(idx for idx, _ in letters))


def tails(a, b) -> tuple:
    """The letters of reduce(a^-1 b) for reduced a, b: both tails past the common prefix."""
    k = prefix_len(a, b)
    return a[k:] + b[k:]


def dist_counts(a, b) -> dict:
    """Length vector of reduce(a^-1 b) for reduced a, b."""
    return counts(tails(a, b))


def format_letters(letters) -> str:
    """Canonical word text: maximal runs of one signed letter collapse to a power."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        idx, sign = letters[i]
        exp = (j - i) * sign
        parts.append(f"a{idx}" if exp == 1 else f"a{idx}^{exp}")
        i = j
    return " ".join(parts)


def format_counts(c: dict) -> str:
    """Positional vector text ``[c1,c2,...]`` with trailing zeros trimmed."""
    top = max((i for i, v in c.items() if v), default=0)
    return "[" + ",".join(str(c.get(i, 0)) for i in range(1, top + 1)) + "]"


def ball_size(max_len: int, max_letter: int) -> int:
    """Vertices of the ball of letter-radius max_len over max_letter generators."""
    k = 2 * max_letter
    return 1 + sum(k * (k - 1) ** (i - 1) for i in range(1, max_len + 1))
