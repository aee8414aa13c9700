"""The big Cayley graph: rational edge offsets, metric, action, ball export.

Points are vertices (reduced words) or interior points (w, a^p, t) of the
unit edge from w to w a^p with exact rational 0 < t < 1: ``tree.EdgePoint``
with a rational offset, the paper's R interval.  Distances extend the word
metric: the position of a point is L(w) + t L(a), and the tree's formula
subtracts twice the smallest of the two positions and the Gromov product of
the far endpoints.  The embedding comparison samples the graph edge at
t = k/points only, so no float enters its grid.  A finite ball is a tree
built breadth first: a child is its parent's letters plus one, or less one
where it steps back along the center's prefixes, so no product is formed;
each edge records its child, and vertices sort by rank-coded letters built
the same way.  The DOT and JSON exports write each vertex's text from its
prefix's and the JSON layout directly.  The identity's ball is also the
exhaustive word list of the suites and tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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

    Vertices are sorted by length, then letter by letter; each edge is a
    (parent, letter, child) triple with child = parent * letter, and edges
    are sorted by their parent's place among the vertices, then by letter.
    """

    center: Word
    vertices: Tuple[Word, ...]
    edges: Tuple[Tuple[Word, Letter, Word], ...]  # (parent, letter, child)


def ball_graph(center: Word, max_len: int, max_letter: int, cap: int = 100_000) -> BallGraph:
    """All reduced words within max_len letters of the center.

    Uses letters of index <= max_letter; the result is a tree rooted at the
    center.  Raises ResourceLimitError when the vertex count would pass cap,
    or the letters of all vertices would pass MAX_WORD_LETTERS.  Both are
    counted length by length before any vertex is built, charging each
    vertex the center's letters plus its distance from the center.

    Each child is formed from its parent's letters and sort key: a letter
    cancels only where it undoes the parent's last letter, which off the
    chain of the center's prefixes is the letter back to the center, never
    taken.  So every other child is the parent plus one letter.
    """
    if not center.reduced:
        raise BigFreeError("ball center must be reduced")
    if max_len < 0 or max_letter < 0:
        raise BigFreeError("ball radius and letter bound must be >= 0")
    vertex_count = letter_count = 0
    for length, count in enumerate(reduced_word_counts(max_len, max_letter)):
        vertex_count += count
        letter_count += count * (len(center.letters) + length)
        if vertex_count > cap:
            raise ResourceLimitError(f"ball would exceed {cap} vertices")
        if letter_count > MAX_WORD_LETTERS:
            raise ResourceLimitError(f"ball would exceed {MAX_WORD_LETTERS} letters in all")
    # radius 0 uses no letter; otherwise the count above keeps the alphabet below cap.
    # The alphabet is in rank order (by index, positive letter first), so each vertex's out-edges are too.
    alphabet = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)] if max_len else []
    ranked = sorted({*alphabet, *center.letters}, key=lambda lt: (lt[0], -lt[1]))
    rank = {lt: r for r, lt in enumerate(ranked)}
    steps = [(lt, (lt,), (rank[lt],), (lt[0], -lt[1])) for lt in alphabet]  # (letter, as letters, its rank, inverse)
    vertices = [center]
    keys = [tuple(map(rank.__getitem__, center.letters))]  # keys[i]: the letter ranks of vertices[i]
    out: List[list] = [[]]  # out[i]: the edges from vertices[i]
    frontier: List[Tuple[int, Optional[Letter]]] = [(0, None)]  # (vertex index, letter back to its parent)
    for _ in range(max_len):
        next_frontier = []
        for i, back in frontier:
            v, key, edges = vertices[i], keys[i], out[i]
            letters = v.letters
            undo = (letters[-1][0], -letters[-1][1]) if letters else None  # the one letter that cancels
            for lt, one, r, inv in steps:
                if lt == back:
                    continue  # would backtrack toward the center
                if lt == undo:
                    child = Word._make(letters[:-1], True)
                    keys.append(key[:-1])
                else:
                    child = Word._make(letters + one, True)
                    keys.append(key + r)
                edges.append((v, lt, child))
                next_frontier.append((len(vertices), inv))
                vertices.append(child)
                out.append([])
        frontier = next_frontier
        if not frontier:
            break  # an empty alphabet: the center is the whole ball
    order = sorted(range(len(vertices)), key=lambda i: (len(keys[i]), keys[i]))
    return BallGraph(center, tuple(vertices[i] for i in order),
                     tuple(e for i in order for e in out[i]))


def _labels(graph: BallGraph, quote: Callable[[str], str]) -> Tuple[Dict[tuple, str], List[Tuple[str, str, Letter]]]:
    """Each vertex's quoted text keyed by its letters in vertex order, and the
    (parent, child, letter) labels of each edge.

    Vertices sort by length, so a word's prefix comes before it.  Where the
    last two letters differ, the text is the prefix's text and one token;
    a run that grows, or a prefix outside the ball, is formatted whole.
    """
    text: Dict[tuple, str] = {}
    label = {}
    tokens: Dict[Letter, str] = {}  # a letter's text, as format_word writes a word of one letter
    for v in graph.vertices:
        letters = v.letters
        prefix = letters[:-1]
        head = text.get(prefix) if letters and (not prefix or prefix[-1] != letters[-1]) else None
        if head is None:
            body = format_word(v)
        else:
            last = letters[-1]
            token = tokens.get(last)
            if token is None:
                token = tokens[last] = format_word(Word._make((last,), True))
            body = f"{head} {token}" if head else token
        text[letters] = body
        label[letters] = quote(body)
    return label, [(label[parent.letters], label[child.letters], lt) for parent, lt, child in graph.edges]


def ball_dot(graph: BallGraph) -> str:
    """Deterministic DOT text; edges point along the positive generator."""
    label, edges = _labels(graph, lambda text: f'"{text or "1"}"')
    center = label[graph.center.letters]
    lines = ["digraph ball {", f"  {center} [shape=doublecircle];"]
    lines += [f"  {name};" for name in label.values() if name != center]
    for parent, child, lt in edges:
        tail, head = (parent, child) if lt[1] > 0 else (child, parent)
        lines.append(f'  {tail} -> {head} [label="{letter_name(lt[0])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_json(graph: BallGraph) -> str:
    """JSON with center, vertices and edges keys; word grammar strings.

    Written straight in the fixed layout of ``json.dumps(..., indent=2)``,
    each word quoted by the encoder's own ASCII escaping.
    """
    from json.encoder import encode_basestring_ascii  # here, so the other graph commands load no json

    label, edges = _labels(graph, encode_basestring_ascii)
    vertices = ",\n    ".join(label.values())
    items = ",\n    ".join(
        f'{{\n      "from": {parent},\n      "to": {child},\n      '
        f'"label": "{letter_name(lt[0])}{"" if lt[1] > 0 else "^-1"}"\n    }}'
        for parent, child, lt in edges)
    edge_list = f"[\n    {items}\n  ]" if items else "[]"
    return (f'{{\n  "center": {label[graph.center.letters]},\n  "vertices": [\n    {vertices}\n  ],\n'
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
