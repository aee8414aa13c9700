"""The big Cayley graph: rational edge offsets, metric, action, ball export.

Points are vertices (reduced words) or interior points (w, a^p, t) of the
unit edge from w to w a^p with exact rational 0 < t < 1: ``tree.EdgePoint``
with a rational offset, the paper's R interval.  Distances extend the word
metric: the position of a point is L(w) + t L(a), and the tree's formula
subtracts twice the smallest of the two positions and the Gromov product of
the far endpoints.  The embedding comparison samples the graph edge at
t = k/points only, so no float enters its grid.  A finite ball is a tree
built length by length from the bottom of the center's prefix chain: each
child is its parent's letters plus one, so no product is formed, and the
walk yields the vertices by length and then by letter with no sort.  The
DOT and JSON exports find each word's prefix, parent and child by position
in that order, and keep each vertex's text with the text before its last
run and the run's length, so a child's text is its prefix's plus one token
or one higher power.  The identity's ball is also the exhaustive word
list of the suites and tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Callable, List, NamedTuple, Tuple, Union

from .ordered_abelian import (
    TOP,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    ParseError,
    ResourceLimitError,
    ZERO,
    check_index,
    read_number,
)
from .tree import (
    EdgePoint,
    act_edge_point,
    direction_word,  # re-exported: a graph point's direction and position are the tree's
    edge_point_dist,
    format_edge_point,
    parse_edge_point,
    position,
)
from .words import (
    MAX_WORD_LETTERS,
    Letter,
    Word,
    format_word,
    letter_name,
    multiply,
    reduced_word_counts,
)


def _rational_offset(t) -> Fraction:
    """t as a Fraction: only an int or a Fraction is exact, so a float, bool or str is refused."""
    if type(t) is Fraction:
        return t
    if isinstance(t, bool) or not isinstance(t, (int, Fraction)):
        raise BigFreeError(f"edge offset must be exact (int or Fraction), got {type(t).__name__}")
    return Fraction(t)


class CayleyPoint(EdgePoint):
    """Graph edge point: rational offset t with 0 < t < 1; vertices are bare Words."""

    __slots__ = ()
    _span = staticmethod(lambda index: 1)
    _coerce = staticmethod(_rational_offset)
    _vector = staticmethod(LexVector.unit)  # t L(a) is the unit vector at a, scaled to t


GraphPoint = Union[CayleyPoint, Word]


def cayley_point(w: Word, index: AlphabetIndex, sign: int, t) -> GraphPoint:
    """Build a point, collapsing the endpoints t = 0 and t = 1 to vertices."""
    if not w.reduced:
        raise BigFreeError("edge base word must be reduced")
    t = _rational_offset(t)
    if t == 0:
        return w
    if t == 1:
        return multiply(w, Word._make(((index, sign),), True))
    return CayleyPoint(w, index, sign, t)


cayley_dist = edge_point_dist  # rational-coordinate distance extending the word metric
cayley_act = act_edge_point


# -- embedding comparison -------------------------------------------------------

class EmbedReport(NamedTuple):
    """Coincidences between the graph-edge and lattice-edge embeddings.

    Both embeddings send an edge of the graph into the interval from 0 to
    L(w a); the graph edge tracks L(w) + t L(a) for rational t in [0,1], the
    lattice edge tracks L(w) + s for lattice s in [0, L(a)].  The two images
    should meet only at the shared endpoints.
    """

    index: AlphabetIndex
    t_count: int
    s_count: int
    matches: Tuple[Tuple[Fraction, LexVector], ...]

    def endpoints_only(self) -> bool:
        expected = {(Fraction(0), ZERO), (Fraction(1), LexVector.unit(self.index))}
        return set(self.matches) == expected


def default_s_grid(index: AlphabetIndex) -> List[LexVector]:
    """Lattice sample of [0, L(a)]: endpoints plus two-sided perturbations.

    The perturbations are c L(a_{index+j}) for j = 1..5 and c = 1..10.
    """
    unit = LexVector.unit(index)
    grid = [ZERO, unit]
    if index is TOP:
        return grid  # the TOP interval has no interior lattice points
    for j in range(1, 6):
        for c in range(1, 11):
            bump = LexVector.unit(index + j, c)
            grid.append(bump)         # just above 0
            grid.append(unit - bump)  # just below L(a)
    return grid


MAX_EMBED_POINTS = 100_000  # embed_compare builds and scales one Fraction per grid point


def embed_compare(w: Word, index: AlphabetIndex, points: int = 100) -> EmbedReport:
    """Report every coincidence of the two edge embeddings on the grids.

    The graph edge is sampled at t = k/points for k = 0..points.  Raises
    ResourceLimitError past MAX_EMBED_POINTS, before any point is built.
    """
    if not w.reduced:
        raise BigFreeError("base word must be reduced")
    check_index(index)
    if points < 1:
        raise BigFreeError(f"points must be at least 1, got {points}")
    if points > MAX_EMBED_POINTS:
        raise ResourceLimitError(f"points must be at most {MAX_EMBED_POINTS}, got {points}")
    ts = [Fraction(k, points) for k in range(points + 1)]
    ss = default_s_grid(index)
    unit = LexVector.unit(index)
    lattice = set(ss)
    matches = []
    for t in ts:
        image = unit.scale(t)  # common offset L(w) cancels from both sides
        if image in lattice:
            matches.append((t, image))
    return EmbedReport(index, len(ts), len(ss), tuple(matches))


# -- finite balls -----------------------------------------------------------------

class BallGraph(NamedTuple):
    """Tree of all words within a letter-count radius of the center.

    Each edge is a (parent, letter, child) triple with child = parent *
    letter and the parent nearer the center.  Vertices are sorted by length,
    then letter by letter (by index, positive letter first), so
    ``vertices[0]`` is the one vertex whose prefix is not a vertex.  Edges
    are sorted by their parent's place among the vertices, then by letter.
    ``ball_dot`` and ``ball_json`` need this order, and refuse a graph built
    by hand in any other.
    """

    center: Word
    vertices: Tuple[Word, ...]
    edges: Tuple[Tuple[Word, Letter, Word], ...]  # (parent, letter, child)


def ball_graph(center: Word, max_len: int, max_letter: int, cap: int = 100_000) -> BallGraph:
    """All reduced words within max_len letters of the center.

    Uses letters of index <= max_letter; the result is a tree rooted at the
    center.  A cap below 1 is refused.  Raises ResourceLimitError when the
    vertex count would pass cap, or the letters of all vertices would pass
    MAX_WORD_LETTERS.  Both are counted length by length before any vertex
    is built, charging each vertex the center's letters plus its distance.

    The walk goes by length.  It starts at the bottom of the center's prefix
    chain: the center less the trailing letters that the radius allows and
    the alphabet holds, the one vertex whose prefix is outside the ball.
    Each word is extended by each letter in rank order but the one that
    cancels, and a child is kept while its distance, the parent's less one
    along the chain and plus one off it, is within the radius.  A chain
    word's edge back toward the bottom takes the slot of the letter that
    cancels.  So the result is in ``BallGraph``'s order with no sort.
    """
    if not center.reduced:
        raise BigFreeError("ball center must be reduced")
    if max_len < 0 or max_letter < 0:
        raise BigFreeError("ball radius and letter bound must be >= 0")
    if cap < 1:
        raise BigFreeError(f"ball vertex cap must be >= 1, got {cap}")
    vertex_count = letter_count = 0
    for length, count in enumerate(reduced_word_counts(max_len, max_letter)):
        vertex_count += count
        letter_count += count * (len(center.letters) + length)
        if vertex_count > cap:
            raise ResourceLimitError(f"ball would exceed {cap} vertices")
        if letter_count > MAX_WORD_LETTERS:
            raise ResourceLimitError(f"ball would exceed {MAX_WORD_LETTERS} letters in all")
    # radius 0 uses no letter; otherwise the count above keeps the alphabet below cap
    alphabet = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)] if max_len else []
    steps = [(lt, (lt,)) for lt in alphabet]  # (letter, as letters), in rank order
    after = {lt: [st for st in steps if st[0] != (lt[0], -lt[1])] for lt in alphabet}  # the steps not undoing lt
    chain = center.letters
    top = len(chain)
    bottom = top
    while bottom > max(top - max_len, 0) and chain[bottom - 1] in after:
        bottom -= 1
    link = center if bottom == top else Word._make(chain[:bottom], True)  # the chain word of the current length
    below = None  # the chain word one letter shorter
    new = object.__new__
    vertices = [link]
    edges = []
    level, dists = [link], [top - bottom]  # the words of one length, and their distances to the center
    for length in range(bottom, top + max_len):
        longer, farther = [], []
        for v, d in zip(level, dists):
            letters = v.letters
            if v is link:  # a chain word: one step up the chain, one back down it
                up = chain[length] if length < top else None
                undo = (letters[-1][0], -letters[-1][1]) if letters else None
                for lt, one in steps:
                    if lt == undo:
                        if below is not None:  # the bottom's prefix is outside the ball
                            edges.append((v, lt, below))
                    elif lt == up or d < max_len:  # only the bottom can lie on the radius
                        child = new(Word)
                        child.letters = letters + one
                        child.reduced = True
                        longer.append(child)
                        if lt == up:
                            farther.append(d - 1)
                            link = child
                        else:
                            farther.append(d + 1)
                            edges.append((v, lt, child))
                below = v
            elif d < max_len:
                d += 1
                for lt, one in after[letters[-1]]:
                    child = new(Word)
                    child.letters = letters + one
                    child.reduced = True
                    edges.append((v, lt, child))
                    longer.append(child)
                    farther.append(d)
        if not longer:
            break
        vertices += longer
        level, dists = longer, farther
    return BallGraph(center, tuple(vertices), tuple(edges))


def _labels(graph: BallGraph, quote: Callable[[str], str], tail: Callable[[Letter], object]) -> tuple:
    """Each vertex's quoted text in vertex order, the center's, and
    (parent, child, tail(letter)) for each edge, with tail called once per letter.

    Words are found by position in the order ``BallGraph`` states, and a
    graph in any other order, or with a vertex letter that neither the center
    nor an edge carries, is refused.  A vertex's prefix is found under a
    pointer that only moves forward, and so are an edge's parent and an
    extending edge's child; a backtracking edge's child is its parent's
    prefix.  Each text is kept with its head (the text before its last run)
    and the run's length: a letter that repeats the prefix's last letter
    raises the run's power on the prefix's head, any other adds a token to
    the prefix's text.  Only ``vertices[0]`` is formatted whole.
    """
    vertices = graph.vertices
    words = [v.letters for v in vertices]
    index = words.index
    names = {lt: letter_name(lt[0]) for lt in {*graph.center.letters, *map(itemgetter(1), graph.edges)}}
    ones = {lt: name if lt[1] > 0 else f"{name}^-1" for lt, name in names.items()}
    # a search that finds nothing, a pointer past the words labelled so far, or a vertex
    # letter that neither the center nor an edge carries (no name) is out of order
    try:
        text = format_word(vertices[0])
        head, _, token = text.rpartition(" ")
        # records[i]: the text of vertices[i], its head, its last run's length and its prefix's place
        records = [(text, head, abs(int(token.partition("^")[2] or 1)), 0)]
        q = 0
        for letters in words[1:]:
            prefix = letters[:-1]
            if prefix != words[q]:
                q = index(prefix, q + 1)
            last = letters[-1]
            text, head, n, _ = records[q]
            if prefix and prefix[-1] == last:
                n += 1
                token = f"{names[last]}^{n * last[1]}"
            else:
                head, n, token = text, 1, ones[last]
            records.append((f"{head} {token}" if head else token, head, n, q))
        quoted = [quote(record[0]) for record in records]
        tails = {lt: tail(lt) for lt in names}
        labelled = []
        p = c = 0
        for parent, lt, child in graph.edges:
            if parent is not vertices[p]:
                p = index(parent.letters, p)
            if len(child.letters) > len(words[p]):  # an extending edge: its child is the next one found
                c += 1
                if child is not vertices[c]:
                    c = index(child.letters, c)
                labelled.append((quoted[p], quoted[c], tails[lt]))
            else:  # a backtracking edge: its child is its parent's prefix
                k = records[p][3]
                if not p or child.letters != words[k]:
                    raise ValueError
                labelled.append((quoted[p], quoted[k], tails[lt]))
        return quoted, quoted[index(graph.center.letters)], labelled
    except (IndexError, KeyError, ValueError):
        raise BigFreeError("ball export needs the vertex and edge order of ball_graph") from None


def ball_dot(graph: BallGraph) -> str:
    """Deterministic DOT text; edges point along the positive generator."""
    labels, center, edges = _labels(graph, lambda text: f'"{text or "1"}"',
                                    lambda lt: (lt[1] > 0, f' [label="{letter_name(lt[0])}"];'))
    lines = ["digraph ball {", f"  {center} [shape=doublecircle];"]
    lines += [f"  {name};" for name in labels if name != center]
    lines += [f"  {parent} -> {child}{tail}" if forward else f"  {child} -> {parent}{tail}"
              for parent, child, (forward, tail) in edges]
    return "\n".join(lines) + "\n}\n"


def ball_json(graph: BallGraph) -> str:
    """JSON with center, vertices and edges keys; word grammar strings.

    Written straight in the fixed layout of ``json.dumps(..., indent=2)``,
    each word quoted by the encoder's own ASCII escaping.
    """
    from json.encoder import encode_basestring_ascii  # here, so the other graph commands load no json

    labels, center, edges = _labels(graph, encode_basestring_ascii, lambda lt: (
        f'"label": "{letter_name(lt[0])}{"" if lt[1] > 0 else "^-1"}"\n    }}'))
    items = ",\n    ".join(f'{{\n      "from": {parent},\n      "to": {child},\n      {tail}'
                             for parent, child, tail in edges)
    edge_list = f"[\n    {items}\n  ]" if items else "[]"
    vertices = ",\n    ".join(labels)
    return (f'{{\n  "center": {center},\n  "vertices": [\n    {vertices}\n  ],\n'
            f'  "edges": {edge_list}\n}}\n')


# -- text form --------------------------------------------------------------------

format_cayley_point = format_edge_point


_T_TEXT = re.compile(r"(-?[0-9]*)\.([0-9]*)")  # the decimal form; integers and p/q are read_number's


def _parse_t(text: str) -> Union[int, Fraction]:
    """An integer or ``p/q`` as ``read_number`` reads them, or a decimal in the same
    digits; no exponent, since ``1e-100000000`` would build a 10**100000000."""
    decimal = _T_TEXT.fullmatch(text)
    try:
        if decimal:
            return Fraction(read_number(decimal[1] + decimal[2]), 10 ** len(decimal[2]))
        return read_number(text, fraction=True)
    except ParseError:
        raise ParseError(
            f"bad edge parameter {text!r} (want a rational p/q with q nonzero, or a decimal)") from None


def parse_cayley_point(text: str) -> GraphPoint:
    return parse_edge_point(text, lambda w, idx, sign, t: cayley_point(w, idx, sign, _parse_t(t)))
