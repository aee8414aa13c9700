"""``words-text`` workload: building and rewriting words, their text form, and ball exports.

Words here are unreduced, up to 80 letters over 8 generators.  The
operations build and rewrite words (reduce, multiply, inverse, the
cancellation calculus) and move them through the text grammar; none
computes a Gromov product, so changes to the Gromov product should leave
this workload unchanged.  Every ``BALL_EVERY`` word operations a small
ball (937 to 3201 vertices) is built and exported to JSON and DOT; those
exports are the slowest operations and set ``lat_p99_us``.
"""

from __future__ import annotations

import json
from random import Random
from time import perf_counter

from bigfree import (
    Cancellation,
    Word,
    apply_cancellation,
    ball_dot,
    ball_graph,
    ball_json,
    format_word,
    inverse,
    multiply,
    parse_word,
    reduce,
    verify_cancellation,
)
from bigfree import sampling

import reference as ref
from harness import check_ops

GENERATORS = 8
MAX_LETTERS = 80
BALL_EVERY = 200
BALLS = [(4, 3), (6, 2), (4, 4)]  # (radius, generators): 937, 1457 and 3201 vertices
SIZES = {"full": 2400, "tiny": 200}
CROSSING = Cancellation([(1, 3), (2, 4)])  # complete but crossing on any word of 4+ letters


def _text(rng: Random, letters) -> str:
    """Word text that writes some runs as powers and some letter by letter."""
    tokens = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        idx, sign = letters[i]
        if j - i > 1 and rng.random() < 0.5:
            tokens.append(f"a{idx}^{(j - i) * sign}")
        else:
            tokens.extend([f"a{idx}" if sign > 0 else f"a{idx}^-1"] * (j - i))
        i = j
    return " ".join(tokens)


def _center(rng: Random, gens: int) -> Word:
    """A two-letter reduced word, so a ball's cost does not hinge on the draw."""
    while True:
        w = sampling.random_reduced_word(rng, 2, gens)
        if len(w) == 2:
            return w


def _unreduced(rng: Random) -> Word:
    while True:
        w = sampling.random_word(rng, MAX_LETTERS, GENERATORS)
        if len(w) >= 4 and not w.reduced:
            return w


def _gen_parse(rng):
    w = sampling.random_word(rng, MAX_LETTERS, GENERATORS)
    return (_text(rng, w.letters),), w.letters


def _gen_one(rng):
    return (sampling.random_word(rng, MAX_LETTERS, GENERATORS),), None


def _gen_two(rng):
    return (sampling.random_word(rng, MAX_LETTERS, GENERATORS),
            sampling.random_word(rng, MAX_LETTERS, GENERATORS)), None


def _gen_unreduced(rng):
    return (_unreduced(rng),), rng.random()


def _gen_verify(rng):
    w = _unreduced(rng)
    if rng.random() < 0.5:
        return (w, CROSSING), False
    return (w, sampling.random_cancellation(rng, w)), True


def _gen_apply(rng):
    w = _unreduced(rng)
    return (w, sampling.random_cancellation(rng, w)), None


def _reduce_by_cancellations(w: Word, seed: float) -> Word:
    """Reduce by applying random valid cancellations until none is left."""
    rng = Random(seed)
    while True:
        c = sampling.random_cancellation(rng, w)
        if c is None:
            return w
        w = apply_cancellation(w, c)


def _check_ball(g, center: Word, radius: int, gens: int) -> bool:
    n = ref.ball_size(radius, gens)
    inv_center = ref.inverse_letters(center.letters)
    return (len(g.vertices) == n and len(g.edges) == n - 1
            and len({v.letters for v in g.vertices}) == n
            and all(ref.reduce_letters(v.letters) == v.letters
                    and len(ref.reduce_letters(inv_center + v.letters)) <= radius for v in g.vertices))


def _check_json(r: str, g) -> bool:
    payload = json.loads(r)
    return (payload["center"] == ref.format_letters(g.center.letters)
            and payload["vertices"] == [ref.format_letters(v.letters) for v in g.vertices]
            and len(payload["edges"]) == len(g.vertices) - 1)


def _check_dot(r: str, g) -> bool:
    lines = r.splitlines()
    return lines[0] == "digraph ball {" and lines[-1] == "}" and len(lines) == 2 * len(g.vertices) + 1


CHECKS = {
    "words.parse_word": lambda r, text, aux: r.letters == aux,
    "words.reduce": lambda r, w, aux: r.letters == ref.reduce_letters(w.letters)
    == _reduce_by_cancellations(w, aux).letters,
    "words.multiply": lambda r, w, v, aux: r.letters == ref.reduce_letters(w.letters + v.letters),
    "words.inverse": lambda r, w, aux: r.letters == ref.inverse_letters(w.letters),
    "words.format_word": lambda r, w, aux: r == ref.format_letters(w.letters) and parse_word(r) == w,
    "words.verify_cancellation": lambda r, w, c, aux: bool(r) == aux,
    "words.apply_cancellation": lambda r, w, c, aux: (
        r.letters == tuple(lt for p, lt in enumerate(w.letters, 1) if p not in c.domain())
        and ref.reduce_letters(r.letters) == ref.reduce_letters(w.letters)),
    "cayley.ball_graph": lambda r, center, radius, gens, aux: _check_ball(r, center, radius, gens),
    "cayley.ball_json": lambda r, g, aux: _check_json(r, g),
    "cayley.ball_dot": lambda r, g, aux: _check_dot(r, g),
}

# span name -> (name of the called function in this module, input generator)
KINDS = {
    "words.parse_word": ("parse_word", _gen_parse),
    "words.reduce": ("reduce", _gen_unreduced),
    "words.multiply": ("multiply", _gen_two),
    "words.inverse": ("inverse", _gen_one),
    "words.format_word": ("format_word", _gen_one),
    "words.verify_cancellation": ("verify_cancellation", _gen_verify),
    "words.apply_cancellation": ("apply_cancellation", _gen_apply),
}
BALL_KINDS = {"cayley.ball_graph": "ball_graph", "cayley.ball_json": "ball_json", "cayley.ball_dot": "ball_dot"}


class State:
    def __init__(self, seed: int, size: str):
        t0 = perf_counter()
        rng = Random(f"words-text:{seed}")
        n = SIZES[size]
        word_kinds = list(KINDS)
        plan = [word_kinds[i % len(word_kinds)] for i in range(n)]
        rng.shuffle(plan)
        self.specs = []
        for i, kind in enumerate(plan):
            self.specs.append((kind, *KINDS[kind][1](rng)))
            if (i + 1) % BALL_EVERY == 0:
                radius, gens = BALLS[(i // BALL_EVERY) % len(BALLS)]
                center = _center(rng, gens)
                graph = ball_graph(center, radius, gens)
                self.specs.append(("cayley.ball_graph", (center, radius, gens), None))
                self.specs.append(("cayley.ball_json", (graph,), None))
                self.specs.append(("cayley.ball_dot", (graph,), None))
        self.gen_s = perf_counter() - t0
        self.samples = {"word_ops_per_round": n, "ball_builds_per_round": n // BALL_EVERY,
                        "max_letters": MAX_LETTERS, "generators": GENERATORS,
                        "balls": [[r, k, ref.ball_size(r, k)] for r, k in BALLS]}

    def round_ops(self) -> list:
        """This round's operations, on freshly built words."""
        g = globals()
        return [(kind, g[KINDS[kind][0] if kind in KINDS else BALL_KINDS[kind]],
                 tuple(Word(x.letters) if isinstance(x, Word) else x for x in args))
                for kind, args, _ in self.specs]

    def check(self, ops: list, results: list) -> list:
        return check_ops(CHECKS, ops, self.specs, results)
