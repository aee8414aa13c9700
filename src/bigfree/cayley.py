"""The big Cayley graph: rational edge offsets, metric, action, ball export.

Points are vertices (reduced words) or interior points (w, a^p, t) of the
unit edge from w to w a^p with exact rational 0 < t < 1: ``tree.EdgePoint``
with a rational offset, the paper's R interval.  Distances extend the word
metric: the position of a point is L(w) + t L(a), and the tree's formula
subtracts twice the smallest of the two positions and the Gromov product of
the far endpoints.  The embedding comparison samples the graph edge at
t = k/points only, so no float enters its grid.  A finite ball is a tree
held as its vertices and each one's prefix position, built length by length
from the bottom of the center's prefix chain: each child is its parent's
letters plus one, so no product is formed, and the walk yields the vertices
by length and then by letter with no sort.  The DOT and JSON exports read
each word's prefix at its position, and keep each vertex's text with the
text before its last run and the run's length, so a child's text is its
prefix's plus one token or one higher power.  The identity's ball is also
the exhaustive word list of the suites and tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Callable, List, NamedTuple, Tuple, Union

from .ordered_abelian import (
    AlphabetIndex,
    BigFreeError,
    LexVector,
    ParseError,
    ResourceLimitError,
    ZERO,
    _format_coord,
    check_index,
    check_int,
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
    inverse_letter,
    letter,
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
    """Build a point, collapsing the endpoints t = 0 and t = 1 to vertices once the letter is checked."""
    if not w.reduced:
        raise BigFreeError("edge base word must be reduced")
    edge = letter(index, sign)
    t = _rational_offset(t)
    if t == 0:
        return w
    if t == 1:
        return multiply(w, Word._make((edge,), True))
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

    The perturbations are c L(a_{index+j}) for c = 1..10 and j = 1..5 with
    index + j <= MAX_WORD_LETTERS, so TOP and the last rank get the two
    endpoints alone.
    """
    unit = LexVector.unit(index)
    grid = [ZERO, unit]
    for j in range(1, min(5, MAX_WORD_LETTERS - index) + 1):
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
    check_int(points, "points")
    if points < 1:
        raise BigFreeError(f"points must be at least 1, got {_format_coord(points)}")
    if points > MAX_EMBED_POINTS:
        raise ResourceLimitError(f"points must be at most {MAX_EMBED_POINTS}, got {_format_coord(points)}")
    ss = default_s_grid(index)
    unit, lattice = LexVector.unit(index), set(ss)
    ts = [Fraction(k, points) for k in range(points + 1)]
    matches = [(t, image) for t in ts if (image := unit.scale(t)) in lattice]  # the offset L(w) cancels
    return EmbedReport(index, len(ts), len(ss), tuple(matches))


# -- finite balls -----------------------------------------------------------------

class BallGraph(NamedTuple):
    """Tree of all words within a letter-count radius of the center, held as a prefix tree.

    ``prefix[i]`` is the position of ``vertices[i].letters[:-1]``, and -1 for ``vertices[0]``,
    whose prefix is not a vertex.  ``ball_graph`` lists the vertices by length, then letter by
    letter (by index, positive letter first), so ``prefix`` never decreases.  A graph built by
    hand is read in any order that keeps each prefix before its vertex and holds the center.
    """

    center: Word
    vertices: Tuple[Word, ...]
    prefix: Tuple[int, ...]

    @property
    def edges(self) -> Tuple[Tuple[Word, Letter, Word], ...]:
        """(parent, letter, child) with child = parent * letter, joining each vertex past the first
        to its prefix, the parent nearer the center; by the parent's position, then by letter."""
        vertices, prefix = self.vertices, self.prefix
        words, order, _ = _edge_order(self)
        return tuple((vertices[prefix[i]], words[i][-1], vertices[i]) if i > 0 else
                     (vertices[~i], inverse_letter(words[~i][-1]), vertices[prefix[~i]]) for i in order)


def ball_graph(center: Word, max_len: int, max_letter: int, cap: int = 100_000) -> BallGraph:
    """All reduced words within max_len letters of the center, over letters of index <= max_letter.

    A radius, letter bound or cap that is not an int, or a cap below 1, is refused.  Raises
    ResourceLimitError when the vertex count would pass cap, or the letters of all vertices
    would pass MAX_WORD_LETTERS: both counted length by length before any vertex is built, each
    vertex charged the center's letters plus its distance.  The walk goes by length from the
    bottom of the center's prefix chain (the center less the trailing letters the radius allows
    and the alphabet holds), extends each word in letter rank order, and keeps a child, with its
    parent's position as its prefix, while within the radius.  So nothing is sorted.
    """
    if not center.reduced:
        raise BigFreeError("ball center must be reduced")
    for what, n in (("radius", max_len), ("letter bound", max_letter), ("vertex cap", cap)):
        check_int(n, f"ball {what}")
    if max_len < 0 or max_letter < 0:
        raise BigFreeError("ball radius and letter bound must be >= 0")
    if cap < 1:
        raise BigFreeError(f"ball vertex cap must be >= 1, got {_format_coord(cap)}")
    vertex_count = letter_count = 0
    for length, count in enumerate(reduced_word_counts(max_len, max_letter)):
        vertex_count += count
        letter_count += count * (len(center.letters) + length)
        if vertex_count > cap:
            raise ResourceLimitError(f"ball would exceed {cap} vertices")
        if letter_count > MAX_WORD_LETTERS:
            raise ResourceLimitError(f"ball would exceed {MAX_WORD_LETTERS} letters in all")
    # radius 0 uses no letter; otherwise the count above keeps the alphabet below cap
    ones = [((k, s),) for k in range(1, max_letter + 1) for s in (1, -1)] if max_len else []
    after = {one: [o for o in ones if o[0] != inverse_letter(one[0])] for one in ones}  # not undoing one
    chain = center.letters
    top = bottom = len(chain)
    while bottom > max(top - max_len, 0) and chain[bottom - 1:bottom] in after:
        bottom -= 1
    link = center if bottom == top else Word._make(chain[:bottom], True)  # the chain word of the current length
    new = object.__new__
    vertices, prefix = [link], [-1]
    level, dists = [link], [top - bottom]  # the words of one length, and their distances to the center
    for length in range(bottom, top + max_len):
        longer, farther = [], []
        for p, (v, d) in enumerate(zip(level, dists), len(vertices) - len(level)):
            letters = v.letters
            up = chain[length:length + 1] if v is link else ()  # a chain word steps up the chain, never down
            # on the radius only the bottom grows, and only up; the bottom may end outside the alphabet
            for one in after.get(letters[-1:], ones) if d < max_len else ((up,) if up else ()):
                child = new(Word)
                child.letters = letters + one
                child.reduced = True
                longer.append(child)
                prefix.append(p)
                farther.append(d - 1 if one == up else d + 1)
                if one == up:
                    link = child
        if not longer:
            break
        vertices += longer
        level, dists = longer, farther
    return BallGraph(center, tuple(vertices), tuple(prefix))


def _edge_order(graph: BallGraph) -> tuple:
    """The vertices' letters, the edges in ``BallGraph.edges``' order, and the center's position.

    Edge i joins vertex i to its prefix; ~c, from c on the center's prefix chain back to its
    prefix, is merged in place, with no sort.  The same pass refuses a graph unless each prefix
    comes before its vertex and is its letters less the last, and the center is a vertex.
    """
    refusal = BigFreeError("ball export needs the vertex and edge order of ball_graph")
    try:
        words, want = [v.letters for v in graph.vertices], graph.center.letters
    except AttributeError:  # a vertex or the center that is not a Word
        raise refusal from None
    prefix, n = graph.prefix, len(words)
    if len(prefix) != n or not n or prefix[0] != -1:
        raise refusal
    # an edge sorts as (parent, k, -s) for its letter (k, s), so the edge back from chain vertex c ending
    # in (k, s) sorts as (c, k, s); waiting holds those not placed yet, in order, then (n,); due: its first
    order, waiting, tip, due = [], [(n,)], 0, n
    for i in range(1, n):
        p, letters = prefix[i], words[i]
        if type(p) is not int or not 0 <= p < i or not letters or letters[:-1] != words[p]:
            raise refusal
        if p >= due:
            key = (p, letters[-1][0], -letters[-1][1])
            while waiting[0] < key:
                order.append(~waiting.pop(0)[0])
            due = waiting[0][0]
        if p == tip and want[:len(letters)] == letters:
            waiting.insert(-1, (i, *letters[-1]))
            tip, due = i, waiting[0][0]
        else:
            order.append(i)
    if words[tip] != want:
        raise refusal
    return words, order + [~c[0] for c in waiting[:-1]], tip


def _labels(graph: BallGraph, quote: Callable[[str], str], tail: Callable[[Letter], object]) -> tuple:
    """Each vertex's quoted text in vertex order, the center's, and (parent, child, tail(letter))
    for each edge in ``_edge_order``'s order, with tail called once per letter.

    Each text is kept with its head (the text before its last run), the run's length and its
    last letter: a letter that repeats the last letter of the prefix, read at its position,
    raises the run's power on the prefix's head, any other adds a token to the prefix's text.
    """
    words, order, center = _edge_order(graph)
    prefix = graph.prefix
    back = {inverse_letter(lt) for lt in graph.center.letters[len(words[0]):]}  # the letters of reversed edges
    names = {lt: letter_name(lt[0]) for lt in {*map(itemgetter(-1), words[1:]), *back}}
    ones = {lt: name if lt[1] > 0 else f"{name}^-1" for lt, name in names.items()}
    text = format_word(graph.vertices[0])
    head, _, token = text.rpartition(" ")
    # records[i]: the text of vertices[i], its head, its last run's length and its last letter
    records = [(text, head, abs(int(token.partition("^")[2] or 1)), words[0][-1] if words[0] else None)]
    for letters, q in zip(words[1:], prefix[1:]):
        last = letters[-1]
        text, head, n, before = records[q]
        if last == before:
            n += 1
            token = f"{names[last]}^{n * last[1]}"
        else:
            head, n, token = text, 1, ones[last]
        records.append((f"{head} {token}" if head else token, head, n, last))
    quoted = [quote(record[0]) for record in records]
    tails = {lt: tail(lt) for lt in names}
    edges = [(quoted[prefix[i]], quoted[i], tails[words[i][-1]]) if i > 0 else
             (quoted[~i], quoted[prefix[~i]], tails[inverse_letter(words[~i][-1])]) for i in order]
    return quoted, quoted[center], edges


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
