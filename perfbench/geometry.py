"""``geometry`` workload: length vectors, Gromov products, tree points, edge triples, graph points.

This is where the Gromov product and the prefix scans of ``to_triple`` spend
their time.  Words mostly have at most 40 letters over 8 generators; one
operation in ``LONG_EVERY`` uses words of 200 to 300 letters instead, and
that tail sets ``lat_p99_us``.  Each kind of operation gets its long
lengths spread evenly over that range, so the tail does not hinge on a few
random draws.  Second words share a random initial segment
with the first, so Gromov products are not trivially empty.  Every round
rebuilds its ``Word`` objects, so length caches start cold on each
operation as they do in the property suite.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from time import perf_counter

from bigfree import (
    ZERO,
    CayleyPoint,
    EdgeTriple,
    LexVector,
    TreePoint,
    Word,
    act_triple,
    cayley_act,
    cayley_dist,
    cayley_point,
    common_prefix,
    double_gromov,
    from_triple,
    half_exact,
    in_letter_ball,
    in_metric_ball,
    inverse,
    length_vector,
    point_eq,
    to_triple,
    tree_act,
    tree_dist,
    triple_dist,
    word_dist,
)
from bigfree import sampling

import reference as ref
from harness import check_ops

GENERATORS = 8
SHORT_MAX = 40
LONG_LEN = (200, 300)
LONG_EVERY = 25
SIZES = {"full": 6000, "tiny": 120}

lex_add = LexVector.__add__
lex_compare = LexVector.compare


# -- input generation ---------------------------------------------------------------

def _extend(rng: Random, letters, n: int, low: int = 1) -> Word:
    """Reduced word: ``letters`` continued by a non-backtracking walk to length n."""
    out = list(letters)
    while len(out) < n:
        lt = (rng.randint(low, GENERATORS), rng.choice((1, -1)))
        if not out or out[-1] != (lt[0], -lt[1]):
            out.append(lt)
    return Word(out)


# ``long`` below is the length of a long operation's words, or 0 for a short one.

def _length(rng: Random, long: int) -> int:
    return long or rng.randint(0, SHORT_MAX)


def _word(rng: Random, long: int) -> Word:
    if long:
        return _extend(rng, (), long)
    return sampling.random_reduced_word(rng, SHORT_MAX, GENERATORS)


def _branch(rng: Random, g: Word, long: int) -> Word:
    """A reduced word sharing a random initial segment with g."""
    n = _length(rng, long)
    k = rng.randint(0, min(len(g), n))
    return _extend(rng, g.letters[:k], n)


def _point(rng: Random, g: Word):
    """A tree point on [1, g] and how many letters of g name it."""
    if not g.letters:
        return TreePoint(ZERO, g), 0
    cut = rng.randint(0, len(g))
    base = length_vector(Word(g.letters[:cut]))
    if cut == len(g) or rng.random() < 0.3:
        return TreePoint(base, g), cut
    return TreePoint(base + sampling.random_offset_inside(rng, g.letters[cut][0]), g), cut + 1


def _edge_letter(rng: Random, w: Word):
    sign = rng.choice((1, -1))
    while True:
        index = rng.randint(1, GENERATORS)
        if not w.letters or w.letters[-1] != (index, -sign):
            return index, sign


def _triple(rng: Random, w: Word) -> EdgeTriple:
    index, sign = _edge_letter(rng, w)
    return EdgeTriple(w, index, sign, sampling.random_offset_inside(rng, index))


def _graph_point(rng: Random, w: Word):
    if rng.random() < 0.25:
        return w
    index, sign = _edge_letter(rng, w)
    den = rng.randint(2, 12)
    return cayley_point(w, index, sign, Fraction(rng.randint(1, den - 1), den))


def _gen_vectors(rng, long):
    g = _word(rng, long)
    h = _branch(rng, g, long)
    b = length_vector(h)
    return (length_vector(g), b if rng.random() < 0.5 else -b), None


def _gen_half(rng, long):
    g = _word(rng, long)
    x = length_vector(g) - length_vector(_branch(rng, g, long))
    return (x.double(),), x


def _gen_word(rng, long):
    return (_word(rng, long),), None


def _gen_pair(rng, long):
    g = _word(rng, long)
    return (g, _branch(rng, g, long)), None


def _gen_points(rng, long):
    g = _word(rng, long)
    return (_point(rng, g)[0], _point(rng, _branch(rng, g, long))[0]), None


def _gen_act(rng, long):
    return (_word(rng, long), _point(rng, _word(rng, long))[0]), None


def _gen_point_eq(rng, long):
    g = _word(rng, long)
    p, need = _point(rng, g)
    if rng.random() < 0.5:
        k = rng.randint(need, len(g))
        return (p, TreePoint(p.n, _extend(rng, g.letters[:k], k + _length(rng, long)))), None
    return (p, _point(rng, _branch(rng, g, long))[0]), None


def _gen_point(rng, long):
    return (_point(rng, _word(rng, long))[0],), None


def _gen_triple(rng, long):
    return (_triple(rng, _word(rng, long)),), None


def _gen_act_triple(rng, long):
    return (_word(rng, long), _triple(rng, _word(rng, long))), None


def _gen_triples(rng, long):
    g = _word(rng, long)
    return (_triple(rng, g), _triple(rng, _branch(rng, g, long))), None


def _gen_graph_points(rng, long):
    g = _word(rng, long)
    return (_graph_point(rng, g), _graph_point(rng, _branch(rng, g, long))), None


def _gen_cayley_act(rng, long):
    return (_word(rng, long), _graph_point(rng, _word(rng, long))), None


def _gen_metric_ball(rng, long):
    g = _word(rng, long)
    eps = length_vector(_extend(rng, (), rng.randint(1, SHORT_MAX)))
    return (g, eps, _branch(rng, g, long)), None


def _gen_letter_ball(rng, long):
    g = _word(rng, long)
    a = rng.randint(1, GENERATORS - 1)
    if rng.random() < 0.5:
        v = _extend(rng, g.letters, len(g) + rng.randint(0, 10), low=a + 1)
    else:
        v = _branch(rng, g, long)
    return (g, a, v), None


# -- checks against independent routes ----------------------------------------------

def _union(a: LexVector, b: LexVector) -> list:
    return sorted(set(a.support()) | set(b.support()))


def _ref_compare(a: LexVector, b: LexVector) -> int:
    for i in _union(a, b):
        if a.get(i) != b.get(i):
            return -1 if a.get(i) < b.get(i) else 1
    return 0


def _prefix_double(a, b) -> LexVector:
    """Twice the length vector of the common prefix of two letter tuples."""
    return LexVector(ref.counts(a[:ref.prefix_len(a, b)])).double()


def _ref_tree_dist(p: TreePoint, q: TreePoint) -> LexVector:
    return p.n + q.n - min(p.n.double(), q.n.double(), _prefix_double(p.g.letters, q.g.letters))


def _ref_cayley_dist(x, y) -> LexVector:
    def position(z):
        if isinstance(z, Word):
            return LexVector(ref.counts(z.letters)), z.letters
        return (LexVector(ref.counts(z.w.letters)) + LexVector.unit(z.index).scale(z.t),
                z.w.letters + ((z.index, z.sign),))

    (px, dx), (py, dy) = position(x), position(y)
    return px + py - min(px.double(), py.double(), _prefix_double(dx, dy))


CHECKS = {
    "ordered_abelian.add": lambda r, a, b, aux: r == LexVector({i: a.get(i) + b.get(i) for i in _union(a, b)}),
    "ordered_abelian.compare": lambda r, a, b, aux: r == _ref_compare(a, b),
    "ordered_abelian.half_exact": lambda r, x, aux: r == aux,
    "words.length_vector": lambda r, g, aux: r == LexVector(ref.counts(g.letters)),
    "words.word_dist": lambda r, g, h, aux: r == LexVector(ref.dist_counts(g.letters, h.letters)),
    "words.double_gromov": lambda r, g, h, aux: r == length_vector(common_prefix(g, h)).double(),
    "tree.tree_dist": lambda r, p, q, aux: r == _ref_tree_dist(p, q),
    "tree.tree_act": lambda r, u, p, aux: point_eq(tree_act(inverse(u), r), p),
    "tree.point_eq": lambda r, p, q, aux: r == (p.n == q.n and p.n.double() <= _prefix_double(p.g.letters, q.g.letters)),
    "triples.to_triple": lambda r, p, aux: point_eq(from_triple(r), p),
    "triples.from_triple": lambda r, e, aux: to_triple(r) == e,
    "triples.act_triple": lambda r, u, e, aux: r == to_triple(tree_act(u, from_triple(e))),
    "triples.triple_dist": lambda r, e1, e2, aux: r == _ref_tree_dist(from_triple(e1), from_triple(e2)),
    "cayley.cayley_dist": lambda r, x, y, aux: r == cayley_dist(y, x) == _ref_cayley_dist(x, y),
    "cayley.cayley_act": lambda r, u, x, aux: cayley_act(inverse(u), r) == x,
    "topology.in_metric_ball": lambda r, w, eps, v, aux: r == (LexVector(ref.dist_counts(w.letters, v.letters)) < eps),
    "topology.in_letter_ball": lambda r, w, a, v, aux: r == all(idx > a for idx, _ in ref.tails(w.letters, v.letters)),
}

# span name -> (name of the called function in this module, input generator)
KINDS = {
    "ordered_abelian.add": ("lex_add", _gen_vectors),
    "ordered_abelian.compare": ("lex_compare", _gen_vectors),
    "ordered_abelian.half_exact": ("half_exact", _gen_half),
    "words.length_vector": ("length_vector", _gen_word),
    "words.word_dist": ("word_dist", _gen_pair),
    "words.double_gromov": ("double_gromov", _gen_pair),
    "tree.tree_dist": ("tree_dist", _gen_points),
    "tree.tree_act": ("tree_act", _gen_act),
    "tree.point_eq": ("point_eq", _gen_point_eq),
    "triples.to_triple": ("to_triple", _gen_point),
    "triples.from_triple": ("from_triple", _gen_triple),
    "triples.act_triple": ("act_triple", _gen_act_triple),
    "triples.triple_dist": ("triple_dist", _gen_triples),
    "cayley.cayley_dist": ("cayley_dist", _gen_graph_points),
    "cayley.cayley_act": ("cayley_act", _gen_cayley_act),
    "topology.in_metric_ball": ("in_metric_ball", _gen_metric_ball),
    "topology.in_letter_ball": ("in_letter_ball", _gen_letter_ball),
}
LONG_KINDS = [k for k in KINDS if not k.startswith("ordered_abelian.")]


class State:
    def __init__(self, seed: int, size: str):
        t0 = perf_counter()
        rng = Random(f"geometry:{seed}")
        n = SIZES[size]
        n_long = n // LONG_EVERY
        short = list(KINDS)
        plan = [(short[i % len(short)], 0) for i in range(n - n_long)]
        long_kinds = [LONG_KINDS[i % len(LONG_KINDS)] for i in range(n_long)]
        seen = dict.fromkeys(LONG_KINDS, 0)
        for kind in long_kinds:
            lo, hi = LONG_LEN
            plan.append((kind, lo + (hi - lo) * (2 * seen[kind] + 1) // (2 * long_kinds.count(kind))))
            seen[kind] += 1
        rng.shuffle(plan)
        self.specs = [(kind, *KINDS[kind][1](rng, long)) for kind, long in plan]
        self.gen_s = perf_counter() - t0
        self.samples = {"ops_per_round": n, "long_ops_per_round": n_long,
                        "long_letters": list(LONG_LEN), "short_max_letters": SHORT_MAX,
                        "generators": GENERATORS}

    def round_ops(self) -> list:
        """This round's operations, on freshly built objects."""
        g = globals()
        return [(kind, g[KINDS[kind][0]], tuple(_fresh(x) for x in args))
                for kind, args, _ in self.specs]

    def check(self, ops: list, results: list) -> list:
        return check_ops(CHECKS, ops, self.specs, results)


def _fresh(x):
    """A copy with new Word objects, so no length cache carries over between rounds."""
    if isinstance(x, Word):
        return Word(x.letters)
    if isinstance(x, TreePoint):
        return TreePoint(x.n, Word(x.g.letters))
    if isinstance(x, EdgeTriple):
        return EdgeTriple(Word(x.w.letters), x.index, x.sign, x.t)
    if isinstance(x, CayleyPoint):
        return CayleyPoint(Word(x.w.letters), x.index, x.sign, x.t)
    return x
